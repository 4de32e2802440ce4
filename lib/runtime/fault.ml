open Echo_tensor

type kind =
  | Oom of { budget_bytes : int }
  | Oom_shrink of { fraction : float }
  | Transient of string
  | Nan_poison
  | Flip_param of { index : int; bit : int }
  | Flip_act of { site : int; index : int; bit : int }

type spec = { step : int; kind : kind }

type t = {
  mutable specs : spec list;  (* unfired, in plan order *)
  flaky : (int * int) option;  (* seed, permille *)
  mutable flaky_done : int;  (* last step a flaky draw was consumed for *)
  flip_flaky : (int * int) option;  (* seed, permille *)
  mutable flip_flaky_done : int;
}

exception Transient_failure of string
exception Bad_spec of string

let grammar =
  "expected semicolon-separated entries: oom@STEP=BYTES | oom@STEP=PCT% | \
   transient@STEP[=WHY] | nan@STEP | flip@STEP=param:INDEX:BIT | \
   flip@STEP=act:SITE:INDEX:BIT | flaky@SEED=PERMILLE | \
   flipflaky@SEED=PERMILLE (BIT in 0..63, INDEX/SITE/STEP non-negative)"

let bad entry = raise (Bad_spec (Printf.sprintf "entry %S: %s" entry grammar))

let none =
  { specs = []; flaky = None; flaky_done = -1;
    flip_flaky = None; flip_flaky_done = -1 }

(* Every flip is bounds-checked at construction, so a malformed plan is
   rejected before any training run starts — never mid-train. *)
let check_kind entry = function
  | Flip_param { index; bit } ->
    if index < 0 || bit < 0 || bit > 63 then bad entry
  | Flip_act { site; index; bit } ->
    if site < 0 || index < 0 || bit < 0 || bit > 63 then bad entry
  | Oom _ | Oom_shrink _ | Transient _ | Nan_poison -> ()

let of_specs ?flaky ?flip_flaky specs =
  List.iter
    (fun s ->
      check_kind "of_specs" s.kind;
      if s.step < 0 then bad "of_specs")
    specs;
  { specs; flaky; flaky_done = -1; flip_flaky; flip_flaky_done = -1 }

let parse_int entry s =
  match int_of_string_opt (String.trim s) with Some n -> n | None -> bad entry

let parse_entry entry =
  match String.index_opt entry '@' with
  | None -> bad entry
  | Some at ->
    let kind_s = String.sub entry 0 at in
    let rest = String.sub entry (at + 1) (String.length entry - at - 1) in
    let step_s, arg =
      match String.index_opt rest '=' with
      | None -> (rest, None)
      | Some eq ->
        ( String.sub rest 0 eq,
          Some (String.sub rest (eq + 1) (String.length rest - eq - 1)) )
    in
    let step = parse_int entry step_s in
    let spec kind =
      check_kind entry kind;
      if step < 0 then bad entry;
      `Spec { step; kind }
    in
    (match (String.lowercase_ascii (String.trim kind_s), arg) with
    | "oom", Some a when String.length a > 0 && a.[String.length a - 1] = '%' ->
      let pct = parse_int entry (String.sub a 0 (String.length a - 1)) in
      spec (Oom_shrink { fraction = float_of_int pct /. 100.0 })
    | "oom", Some a -> spec (Oom { budget_bytes = parse_int entry a })
    | "oom", None -> bad entry
    | "transient", reason ->
      spec (Transient (Option.value reason ~default:"injected"))
    | "nan", None -> spec Nan_poison
    | "flip", Some a -> (
      match String.split_on_char ':' a with
      | [ "param"; index; bit ] ->
        spec (Flip_param { index = parse_int entry index; bit = parse_int entry bit })
      | [ "act"; site; index; bit ] ->
        spec
          (Flip_act
             {
               site = parse_int entry site;
               index = parse_int entry index;
               bit = parse_int entry bit;
             })
      | _ -> bad entry)
    | "flaky", Some permille -> `Flaky (step, parse_int entry permille)
    | "flipflaky", Some permille -> `Flip_flaky (step, parse_int entry permille)
    | _ -> bad entry)

let parse text =
  let entries =
    List.filter
      (fun s -> String.trim s <> "")
      (String.split_on_char ';' text)
  in
  List.fold_left
    (fun plan entry ->
      match parse_entry (String.trim entry) with
      | `Spec s -> { plan with specs = plan.specs @ [ s ] }
      | `Flaky f -> { plan with flaky = Some f }
      | `Flip_flaky f -> { plan with flip_flaky = Some f })
    none entries

let of_env () =
  match Sys.getenv_opt "ECHO_FAULTS" with
  | None -> none
  | Some s when String.trim s = "" -> none
  | Some s -> (
    try parse s with Bad_spec msg -> raise (Bad_spec ("ECHO_FAULTS " ^ msg)))

let is_empty t = t.specs = [] && t.flaky = None && t.flip_flaky = None
let specs t = t.specs

(* One draw per (seed, step), independent of call order: the generator is
   seeded from both, so retries and replans observe the same verdict. *)
let flaky_fires seed permille step =
  Rng.float (Rng.create ((seed * 1_000_003) + step)) < float_of_int permille /. 1000.0

(* The flip-flaky source draws from its own stream (distinct multiplier, so
   a plan arming both sources with one seed still gets independent draws);
   when it fires, the same stream deterministically picks which parameter
   scalar and which bit to upset. *)
let flip_flaky_draw seed permille step =
  let rng = Rng.create ((seed * 2_000_029) + step) in
  if Rng.float rng >= float_of_int permille /. 1000.0 then None
  else
    let index = Rng.int rng 1_048_576 in
    let bit = Rng.int rng 64 in
    Some (Flip_param { index; bit })

let take t ~step =
  let rec split acc = function
    | [] -> None
    | s :: rest when s.step = step ->
      t.specs <- List.rev_append acc rest;
      Some s.kind
    | s :: rest -> split (s :: acc) rest
  in
  match split [] t.specs with
  | Some _ as fired -> fired
  | None -> (
    let flaky =
      match t.flaky with
      | Some (seed, permille) when t.flaky_done <> step ->
        t.flaky_done <- step;
        if flaky_fires seed permille step then Some (Transient "flaky") else None
      | Some _ | None -> None
    in
    match flaky with
    | Some _ as fired -> fired
    | None -> (
      match t.flip_flaky with
      | Some (seed, permille) when t.flip_flaky_done <> step ->
        t.flip_flaky_done <- step;
        flip_flaky_draw seed permille step
      | Some _ | None -> None))

let kind_to_string step = function
  | Oom { budget_bytes } -> Printf.sprintf "oom@%d=%d" step budget_bytes
  | Oom_shrink { fraction } ->
    Printf.sprintf "oom@%d=%.0f%%" step (100.0 *. fraction)
  | Transient reason -> Printf.sprintf "transient@%d=%s" step reason
  | Nan_poison -> Printf.sprintf "nan@%d" step
  | Flip_param { index; bit } -> Printf.sprintf "flip@%d=param:%d:%d" step index bit
  | Flip_act { site; index; bit } ->
    Printf.sprintf "flip@%d=act:%d:%d:%d" step site index bit

let to_string t =
  String.concat ";"
    (List.map (fun s -> kind_to_string s.step s.kind) t.specs
    @ (match t.flaky with
      | Some (seed, permille) -> [ Printf.sprintf "flaky@%d=%d" seed permille ]
      | None -> [])
    @
    match t.flip_flaky with
    | Some (seed, permille) -> [ Printf.sprintf "flipflaky@%d=%d" seed permille ]
    | None -> [])

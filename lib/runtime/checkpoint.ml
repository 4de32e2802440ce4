open Echo_tensor
module Serial = Echo_ir.Serial

type t = {
  step : int;
  rng_state : int64 option;
  opt_steps : int;
  losses : float list;
  params : (string * Tensor.t) list;
  slots : (string * (int * Tensor.t) list) list;
}

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt
let header = "echo-checkpoint v1"

(* FNV-1a 64, continued from [h] over [len] bytes of [s] from [off]. A
   plain loop: the hash stays an unboxed local. *)
let fnv_offset = 0xcbf29ce484222325L

let fnv h s ~off ~len =
  let h = ref h in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

let checksum s = fnv fnv_offset s ~off:0 ~len:(String.length s)

(* The body streams to the channel through one line buffer: each line is
   rendered in place (tensors straight from their floats, drained every
   256 elements so the buffer never grows past its initial size), folded
   into the running checksum and written out, so neither a whole-file nor
   a whole-line string exists. The bytes are exactly the format's:
   [header], [step], [opt-steps], [rng], [loss] lines, then [param] and
   [slot] lines with [Serial] tensors. *)
type sink = {
  oc : out_channel;
  line : Buffer.t;
  chunk : Bytes.t;  (* checksum staging: [line] is copied out piecewise *)
  mutable hash : int64;
}

let drain w =
  let len = Buffer.length w.line in
  let size = Bytes.length w.chunk in
  let off = ref 0 in
  while !off < len do
    let n = min size (len - !off) in
    Buffer.blit w.line !off w.chunk 0 n;
    w.hash <- fnv w.hash (Bytes.unsafe_to_string w.chunk) ~off:0 ~len:n;
    off := !off + n
  done;
  Buffer.output_buffer w.oc w.line;
  Buffer.clear w.line

let end_line w =
  Buffer.add_char w.line '\n';
  drain w

let write_body w ckpt =
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string w.line s;
        end_line w)
      fmt
  in
  line "%s" header;
  line "step %d" ckpt.step;
  line "opt-steps %d" ckpt.opt_steps;
  (match ckpt.rng_state with
  | Some s -> line "rng %Lx" s
  | None -> ());
  List.iter
    (fun l ->
      Buffer.add_string w.line "loss ";
      Serial.add_float_hex w.line l;
      end_line w)
    ckpt.losses;
  let tensor_line prefix t =
    Buffer.add_string w.line prefix;
    Serial.add_tensor ~drain:(fun _ -> drain w) w.line t;
    end_line w
  in
  List.iter
    (fun (name, t) ->
      tensor_line (Printf.sprintf "param %s " (Serial.escape name)) t)
    ckpt.params;
  List.iter
    (fun (slot, entries) ->
      List.iter
        (fun (idx, t) ->
          tensor_line (Printf.sprintf "slot %s %d " (Serial.escape slot) idx) t)
        entries)
    ckpt.slots

let save ~path ckpt =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  let w =
    {
      oc;
      line = Buffer.create 16384;
      chunk = Bytes.create 16384;
      hash = fnv_offset;
    }
  in
  write_body w ckpt;
  Printf.fprintf oc "checksum %Lx\n" w.hash;
  close_out oc;
  Sys.rename tmp path

let parse_int line s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> corrupt "bad integer %S in line %S" s line

let parse_float line s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> corrupt "bad float %S in line %S" s line

let tensor line s =
  try Serial.tensor_of_string s
  with Serial.Parse_error why -> corrupt "bad tensor in line %S: %s" line why

let load path =
  let text =
    try
      let ic = open_in path in
      let n = in_channel_length ic in
      let contents = really_input_string ic n in
      close_in ic;
      contents
    with Sys_error why -> corrupt "cannot read %s: %s" path why
  in
  (* Split off and verify the trailing checksum line first. *)
  let verified =
    let trimmed =
      if String.length text > 0 && text.[String.length text - 1] = '\n' then
        String.sub text 0 (String.length text - 1)
      else text
    in
    match String.rindex_opt trimmed '\n' with
    | None -> corrupt "%s: missing checksum line" path
    | Some nl ->
      let last = String.sub trimmed (nl + 1) (String.length trimmed - nl - 1) in
      let rest = String.sub trimmed 0 (nl + 1) in
      (match String.split_on_char ' ' last with
      | [ "checksum"; hex ] ->
        let expect =
          try Int64.of_string ("0x" ^ hex)
          with _ -> corrupt "%s: bad checksum %S" path hex
        in
        if checksum rest <> expect then
          corrupt "%s: checksum mismatch (file corrupt or truncated)" path;
        rest
      | _ -> corrupt "%s: missing checksum line" path)
  in
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' verified)
  in
  match lines with
  | first :: rest when String.trim first = header ->
    let step = ref None
    and opt_steps = ref 0
    and rng_state = ref None
    and losses = ref []
    and params = ref []
    and slots : (string, (int * Tensor.t) list ref) Hashtbl.t =
      Hashtbl.create 4
    and slot_order = ref [] in
    List.iter
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | [ "step"; n ] -> step := Some (parse_int line n)
        | [ "opt-steps"; n ] -> opt_steps := parse_int line n
        | [ "rng"; hex ] -> (
          try rng_state := Some (Int64.of_string ("0x" ^ hex))
          with _ -> corrupt "bad rng state in line %S" line)
        | [ "loss"; v ] -> losses := parse_float line v :: !losses
        | [ "param"; name; t ] ->
          params := (Serial.unescape name, tensor line t) :: !params
        | [ "slot"; slot; idx; t ] ->
          let slot = Serial.unescape slot in
          let entries =
            match Hashtbl.find_opt slots slot with
            | Some r -> r
            | None ->
              let r = ref [] in
              Hashtbl.add slots slot r;
              slot_order := slot :: !slot_order;
              r
          in
          entries := (parse_int line idx, tensor line t) :: !entries
        | _ -> corrupt "unrecognised checkpoint line %S" line)
      rest;
    (match !step with
    | None -> corrupt "%s: missing step line" path
    | Some step ->
      {
        step;
        rng_state = !rng_state;
        opt_steps = !opt_steps;
        losses = List.rev !losses;
        params = List.rev !params;
        slots =
          List.rev_map
            (fun slot -> (slot, List.rev !(Hashtbl.find slots slot)))
            !slot_order;
      })
  | first :: _ -> corrupt "%s: bad header %S" path first
  | [] -> corrupt "%s: empty checkpoint" path

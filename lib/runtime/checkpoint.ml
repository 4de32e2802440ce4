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

(* The body streams to the channel through one byte chunk: every piece
   is rendered straight into it (tensors from their floats, by
   [Serial.put_tensor]), and a full chunk is folded into the running
   checksum and written out in one pass, so neither a whole-file nor a
   whole-line string exists and no byte is copied twice. The bytes are
   exactly the format's: [header], [step], [opt-steps], [rng], [loss]
   lines, then [param] and [slot] lines with [Serial] tensors. *)
type sink = { oc : out_channel; chunk : Bytes.t; mutable pos : int; mutable hash : int64 }

let flush w =
  w.hash <- fnv w.hash (Bytes.unsafe_to_string w.chunk) ~off:0 ~len:w.pos;
  output w.oc w.chunk 0 w.pos;
  w.pos <- 0

(* Makes room for [n] more bytes ([n] at most the chunk's length). *)
let room w n = if w.pos + n > Bytes.length w.chunk then flush w

let put_char w c =
  room w 1;
  Bytes.unsafe_set w.chunk w.pos c;
  w.pos <- w.pos + 1

let put_string w s =
  let n = String.length s in
  if n > Bytes.length w.chunk then begin
    flush w;
    w.hash <- fnv w.hash s ~off:0 ~len:n;
    output_string w.oc s
  end
  else begin
    room w n;
    Bytes.blit_string s 0 w.chunk w.pos n;
    w.pos <- w.pos + n
  end

let put_float w x =
  room w Serial.float_hex_max;
  w.pos <- Serial.put_float_hex w.chunk w.pos x

let put_tensor w t =
  w.pos <-
    Serial.put_tensor w.chunk w.pos
      ~flush:(fun n ->
        w.pos <- n;
        flush w)
      t

let write_body w ckpt =
  let line fmt =
    Printf.ksprintf
      (fun s ->
        put_string w s;
        put_char w '\n')
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
      put_string w "loss ";
      put_float w l;
      put_char w '\n')
    ckpt.losses;
  let tensor_line prefix t =
    put_string w prefix;
    put_tensor w t;
    put_char w '\n'
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
  let w = { oc; chunk = Bytes.create 65536; pos = 0; hash = fnv_offset } in
  write_body w ckpt;
  flush w;
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

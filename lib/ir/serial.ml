open Echo_tensor

exception Parse_error of string

let fail line reason = raise (Parse_error (Printf.sprintf "%s: %s" reason line))

(* Percent-escape the characters that would break the line format. *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | ' ' -> Buffer.add_string buf "%20"
      | '%' -> Buffer.add_string buf "%25"
      | '\n' -> Buffer.add_string buf "%0A"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then begin
      if s.[i] = '%' && i + 2 < n then begin
        (match String.sub s (i + 1) 2 with
        | "20" -> Buffer.add_char buf ' '
        | "25" -> Buffer.add_char buf '%'
        | "0A" -> Buffer.add_char buf '\n'
        | other -> fail s ("bad escape %" ^ other));
        go (i + 3)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    end
  in
  go 0;
  Buffer.contents buf

let shape_to_string s =
  if Array.length s = 0 then "scalar"
  else String.concat "x" (Array.to_list (Array.map string_of_int s))

let shape_of_string line s =
  if s = "scalar" then Shape.scalar
  else begin
    match
      Array.of_list (List.map int_of_string (String.split_on_char 'x' s))
    with
    | shape ->
      Shape.validate shape;
      shape
    | exception _ -> fail line ("bad shape " ^ s)
  end

let bool_to_string b = if b then "1" else "0"

(* Operator <-> token list. The first token is the opcode; the rest are
   key=value pairs in a fixed order per opcode. *)
let op_tokens op =
  let shape s = shape_to_string s in
  match (op : Op.t) with
  | Op.Placeholder -> [ "placeholder" ]
  | Op.Variable -> [ "variable" ]
  | Op.Zeros -> [ "zeros" ]
  | Op.ConstFill v -> [ "constfill"; string_of_float v ]
  | Op.DropoutMask { p; seed } ->
    [ "dropoutmask"; string_of_float p; string_of_int seed ]
  | Op.Neg -> [ "neg" ]
  | Op.Scale k -> [ "scale"; string_of_float k ]
  | Op.AddScalar k -> [ "addscalar"; string_of_float k ]
  | Op.PowConst p -> [ "powconst"; string_of_float p ]
  | Op.Sigmoid -> [ "sigmoid" ]
  | Op.Tanh -> [ "tanh" ]
  | Op.Relu -> [ "relu" ]
  | Op.Exp -> [ "exp" ]
  | Op.Log -> [ "log" ]
  | Op.Sqrt -> [ "sqrt" ]
  | Op.Sq -> [ "sq" ]
  | Op.Recip -> [ "recip" ]
  | Op.Sign -> [ "sign" ]
  | Op.Add -> [ "add" ]
  | Op.Sub -> [ "sub" ]
  | Op.Mul -> [ "mul" ]
  | Op.Div -> [ "div" ]
  | Op.Matmul { trans_a; trans_b } ->
    [ "matmul"; bool_to_string trans_a; bool_to_string trans_b ]
  | Op.AddBias -> [ "addbias" ]
  | Op.ScaleBy -> [ "scaleby" ]
  | Op.Slice { axis; lo; hi } ->
    [ "slice"; string_of_int axis; string_of_int lo; string_of_int hi ]
  | Op.PadSlice { axis; lo; full } ->
    [ "padslice"; string_of_int axis; string_of_int lo; string_of_int full ]
  | Op.Concat { axis } -> [ "concat"; string_of_int axis ]
  | Op.Reshape s -> [ "reshape"; shape s ]
  | Op.Transpose2d -> [ "transpose2d" ]
  | Op.ReduceSum { axis; keepdims } ->
    [ "reducesum"; string_of_int axis; bool_to_string keepdims ]
  | Op.ReduceMean { axis; keepdims } ->
    [ "reducemean"; string_of_int axis; bool_to_string keepdims ]
  | Op.BroadcastAxis { axis; n } ->
    [ "broadcastaxis"; string_of_int axis; string_of_int n ]
  | Op.Softmax -> [ "softmax" ]
  | Op.LogSoftmax -> [ "logsoftmax" ]
  | Op.CrossEntropy -> [ "crossentropy" ]
  | Op.CrossEntropyGrad -> [ "crossentropygrad" ]
  | Op.Embedding -> [ "embedding" ]
  | Op.EmbeddingGrad { vocab } -> [ "embeddinggrad"; string_of_int vocab ]
  | Op.Conv2d { stride; pad } ->
    [ "conv2d"; string_of_int stride; string_of_int pad ]
  | Op.Conv2dGradInput { stride; pad; input_shape } ->
    [ "conv2dgradinput"; string_of_int stride; string_of_int pad; shape input_shape ]
  | Op.Conv2dGradKernel { stride; pad; kernel_shape } ->
    [ "conv2dgradkernel"; string_of_int stride; string_of_int pad; shape kernel_shape ]

let op_of_tokens line tokens =
  let f s = try float_of_string s with _ -> fail line ("bad float " ^ s) in
  let i s = try int_of_string s with _ -> fail line ("bad int " ^ s) in
  let b s =
    match s with "1" -> true | "0" -> false | _ -> fail line ("bad bool " ^ s)
  in
  match tokens with
  | [ "placeholder" ] -> Op.Placeholder
  | [ "variable" ] -> Op.Variable
  | [ "zeros" ] -> Op.Zeros
  | [ "constfill"; v ] -> Op.ConstFill (f v)
  | [ "dropoutmask"; p; seed ] -> Op.DropoutMask { p = f p; seed = i seed }
  | [ "neg" ] -> Op.Neg
  | [ "scale"; k ] -> Op.Scale (f k)
  | [ "addscalar"; k ] -> Op.AddScalar (f k)
  | [ "powconst"; p ] -> Op.PowConst (f p)
  | [ "sigmoid" ] -> Op.Sigmoid
  | [ "tanh" ] -> Op.Tanh
  | [ "relu" ] -> Op.Relu
  | [ "exp" ] -> Op.Exp
  | [ "log" ] -> Op.Log
  | [ "sqrt" ] -> Op.Sqrt
  | [ "sq" ] -> Op.Sq
  | [ "recip" ] -> Op.Recip
  | [ "sign" ] -> Op.Sign
  | [ "add" ] -> Op.Add
  | [ "sub" ] -> Op.Sub
  | [ "mul" ] -> Op.Mul
  | [ "div" ] -> Op.Div
  | [ "matmul"; ta; tb ] -> Op.Matmul { trans_a = b ta; trans_b = b tb }
  | [ "addbias" ] -> Op.AddBias
  | [ "scaleby" ] -> Op.ScaleBy
  | [ "slice"; axis; lo; hi ] -> Op.Slice { axis = i axis; lo = i lo; hi = i hi }
  | [ "padslice"; axis; lo; full ] ->
    Op.PadSlice { axis = i axis; lo = i lo; full = i full }
  | [ "concat"; axis ] -> Op.Concat { axis = i axis }
  | [ "reshape"; s ] -> Op.Reshape (shape_of_string line s)
  | [ "transpose2d" ] -> Op.Transpose2d
  | [ "reducesum"; axis; keep ] -> Op.ReduceSum { axis = i axis; keepdims = b keep }
  | [ "reducemean"; axis; keep ] ->
    Op.ReduceMean { axis = i axis; keepdims = b keep }
  | [ "broadcastaxis"; axis; n ] -> Op.BroadcastAxis { axis = i axis; n = i n }
  | [ "softmax" ] -> Op.Softmax
  | [ "logsoftmax" ] -> Op.LogSoftmax
  | [ "crossentropy" ] -> Op.CrossEntropy
  | [ "crossentropygrad" ] -> Op.CrossEntropyGrad
  | [ "embedding" ] -> Op.Embedding
  | [ "embeddinggrad"; vocab ] -> Op.EmbeddingGrad { vocab = i vocab }
  | [ "conv2d"; stride; pad ] -> Op.Conv2d { stride = i stride; pad = i pad }
  | [ "conv2dgradinput"; stride; pad; s ] ->
    Op.Conv2dGradInput
      { stride = i stride; pad = i pad; input_shape = shape_of_string line s }
  | [ "conv2dgradkernel"; stride; pad; s ] ->
    Op.Conv2dGradKernel
      { stride = i stride; pad = i pad; kernel_shape = shape_of_string line s }
  | _ -> fail line "unknown operator"

let float_hex_max = 24 (* "-0x1." ^ 13 hex digits ^ "p-1022" *)

(* [set b i c] stores [c] at [i] and returns the next position. *)
let set b i c =
  Bytes.unsafe_set b i c;
  i + 1
[@@inline]

let put_string b i s =
  Bytes.blit_string s 0 b i (String.length s);
  i + String.length s

let put_digit b i d = set b i (Char.unsafe_chr (48 + d)) [@@inline]

(* [Printf.sprintf "%h" x], rendered straight into [b] at [pos]: the
   sign, then [infinity], [nan], or [0x] + the leading digit + the
   mantissa's hex digits without trailing zeros + [p] + the signed decimal
   exponent (subnormals as [0x0.<digits>p-1022]). Allocation-free, where
   sprintf allocates a format closure and a string per float; inlined into
   [put_tensor], so the float argument is not boxed either. *)
let put_float_hex b pos x =
  if pos < 0 || pos > Bytes.length b - float_hex_max then
    invalid_arg "Serial.put_float_hex: fewer than float_hex_max bytes left";
  let bits = Int64.bits_of_float x in
  let i = if bits < 0L then set b pos '-' else pos in
  let e = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let m = Int64.to_int (Int64.logand bits 0xf_ffff_ffff_ffffL) in
  if e = 0x7ff then put_string b i (if m = 0 then "infinity" else "nan")
  else begin
    let i = put_string b i (if e = 0 then "0x0" else "0x1") in
    let i = ref i in
    if m <> 0 then begin
      i := set b !i '.';
      let m = ref m in
      while !m <> 0 do
        i := set b !i (String.unsafe_get "0123456789abcdef" (!m lsr 48));
        m := (!m lsl 4) land 0xf_ffff_ffff_ffff
      done
    end;
    let exp = if e = 0 then if m = 0 then 0 else -1022 else e - 1023 in
    let i = set b !i 'p' in
    let i = set b i (if exp < 0 then '-' else '+') in
    let a = abs exp in
    let i = if a >= 1000 then put_digit b i (a / 1000) else i in
    let i = if a >= 100 then put_digit b i (a / 100 mod 10) else i in
    let i = if a >= 10 then put_digit b i (a / 10 mod 10) else i in
    put_digit b i (a mod 10)
  end
[@@inline]

(* Tensor <-> single token: SHAPE:V0,V1,... with %h floats so round-trips
   are bit-exact. Used by the checkpoint format in [Echo_runtime]. The
   element loop lives here, beside [put_float_hex], so each float goes to
   the renderer unboxed. *)
let put_tensor b pos ~flush t =
  let header = shape_to_string (Tensor.shape t) in
  let room pos n = if pos > Bytes.length b - n then (flush pos; 0) else pos in
  let pos = room pos (String.length header + 1) in
  let pos = set b (put_string b pos header) ':' in
  let d = Tensor.unsafe_data t in
  let i = ref pos in
  for k = 0 to Array.length d - 1 do
    i := room !i (float_hex_max + 1);
    if k > 0 then i := set b !i ',';
    i := put_float_hex b !i (Array.unsafe_get d k)
  done;
  !i

let tensor_to_string t =
  let b =
    Bytes.create
      (String.length (shape_to_string (Tensor.shape t))
      + 1
      + (Tensor.numel t * (float_hex_max + 1)))
  in
  Bytes.sub_string b 0 (put_tensor b 0 ~flush:(fun _ -> assert false) t)

let tensor_of_string s =
  match String.index_opt s ':' with
  | None -> fail s "missing ':' in tensor"
  | Some colon ->
    let shape = shape_of_string s (String.sub s 0 colon) in
    let body = String.sub s (colon + 1) (String.length s - colon - 1) in
    let values =
      if body = "" then [||]
      else
        Array.of_list
          (List.map
             (fun v ->
               try float_of_string v with _ -> fail s ("bad float " ^ v))
             (String.split_on_char ',' body))
    in
    if Array.length values <> Shape.numel shape then
      fail s "tensor element count does not match shape";
    Tensor.create shape values

let header = "echo-graph v1"

let to_string graph =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "node %d %s %s %h %s %s ; %s\n" (Node.id n)
           (escape (Node.name n))
           (match Node.region n with Node.Forward -> "fwd" | Node.Backward -> "bwd")
           (Node.hint n)
           (shape_to_string (Node.shape n))
           (String.concat " " (op_tokens (Node.op n)))
           (String.concat " " (List.map (fun i -> string_of_int (Node.id i)) (Node.inputs n)))))
    (Graph.nodes graph);
  Buffer.add_string buf
    ("outputs "
    ^ String.concat " " (List.map (fun o -> string_of_int (Node.id o)) (Graph.outputs graph))
    ^ "\n");
  Buffer.contents buf

let of_string text =
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  match lines with
  | [] -> raise (Parse_error "empty input")
  | first :: rest when String.trim first = header ->
    let table : (int, Node.t) Hashtbl.t = Hashtbl.create 1024 in
    let outputs = ref None in
    List.iter
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | "outputs" :: ids ->
          outputs :=
            Some
              (List.map
                 (fun s ->
                   match Hashtbl.find_opt table (int_of_string s) with
                   | Some n -> n
                   | None -> fail line ("unknown output id " ^ s))
                 ids)
        | "node" :: id :: name :: region :: hint :: shape :: rest -> (
          let id = try int_of_string id with _ -> fail line "bad id" in
          let region =
            match region with
            | "fwd" -> Node.Forward
            | "bwd" -> Node.Backward
            | other -> fail line ("bad region " ^ other)
          in
          let hint = try float_of_string hint with _ -> fail line "bad hint" in
          (* rest = op tokens ; inputs *)
          match
            let rec split acc = function
              | ";" :: tl -> (List.rev acc, tl)
              | tok :: tl -> split (tok :: acc) tl
              | [] -> fail line "missing ';'"
            in
            split [] rest
          with
          | op_tokens_list, input_ids ->
            let op = op_of_tokens line op_tokens_list in
            let inputs =
              List.map
                (fun s ->
                  match Hashtbl.find_opt table (int_of_string s) with
                  | Some n -> n
                  | None -> fail line ("unknown input id " ^ s))
                (List.filter (fun s -> s <> "") input_ids)
            in
            let shape_v = shape_of_string line shape in
            let explicit = if Op.is_leaf op then Some shape_v else None in
            let node =
              Node.create ~name:(unescape name) ~region ~hint ?shape:explicit op
                inputs
            in
            if not (Shape.equal (Node.shape node) shape_v) then
              fail line "shape mismatch after reconstruction";
            Hashtbl.replace table id node)
        | _ -> fail line "unrecognised line")
      rest;
    (match !outputs with
    | Some os -> Graph.create os
    | None -> raise (Parse_error "missing outputs line"))
  | first :: _ -> fail first "bad header"

let to_file graph path =
  let oc = open_out path in
  output_string oc (to_string graph);
  close_out oc

let of_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  of_string contents

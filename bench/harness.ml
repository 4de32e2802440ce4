(* Shared infrastructure for the experiment harness: model builders, policy
   runners and table formatting. Every experiment in main.ml prints the rows
   of the corresponding table/figure of the paper's evaluation (see
   DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured). *)

open Echo_models
open Echo_core
open Echo_exec
module Pipeline = Echo_compiler.Pipeline

let device = Echo_gpusim.Device.titan_xp

(* Configurations under study. [quick] shrinks them for smoke runs. *)
type scale = Full | Quick

let lm_cfg ?(scale = Full) ?batch ?seq_len ?hidden () =
  let d = Language_model.ptb_default in
  let d = match scale with Full -> d | Quick -> { d with Language_model.vocab = 2000; seq_len = 12; batch = 16; hidden = 256; embed = 256 } in
  let hidden_v = Option.value hidden ~default:d.Language_model.hidden in
  {
    d with
    Language_model.batch = Option.value batch ~default:d.Language_model.batch;
    seq_len = Option.value seq_len ~default:d.Language_model.seq_len;
    hidden = hidden_v;
    embed = hidden_v;
  }

let nmt_cfg ?(scale = Full) ?batch () =
  let d = Nmt.gnmt_like in
  let d =
    match scale with
    | Full -> d
    | Quick ->
      { d with Nmt.src_vocab = 4000; tgt_vocab = 4000; hidden = 128; embed = 128;
        enc_layers = 2; dec_layers = 2; src_len = 10; tgt_len = 10; batch = 16 }
  in
  { d with Nmt.batch = Option.value batch ~default:d.Nmt.batch }

let ds2_cfg ?(scale = Full) () =
  match scale with
  | Full -> Deepspeech.ds2_like
  | Quick ->
    { Deepspeech.ds2_like with Deepspeech.time = 32; rnn_hidden = 128; rnn_layers = 2; batch = 4 }

let transformer_cfg ?(scale = Full) () =
  match scale with
  | Full -> Transformer.base_like
  | Quick ->
    { Transformer.base_like with Transformer.vocab = 4000; seq_len = 16; batch = 2;
      d_model = 128; d_ff = 256; layers = 2 }

let build_lm ?scale ?batch ?seq_len ?hidden ?(cell = Recurrent.Lstm) () =
  let cfg = { (lm_cfg ?scale ?batch ?seq_len ?hidden ()) with Language_model.cell } in
  (Language_model.build cfg).Language_model.model

let build_nmt ?scale ?batch () = (Nmt.build (nmt_cfg ?scale ?batch ())).Nmt.model
let build_ds2 ?scale () = (Deepspeech.build (ds2_cfg ?scale ())).Deepspeech.model

let build_transformer ?scale () =
  (Transformer.build (transformer_cfg ?scale ())).Transformer.model

(* Every experiment's graph comes out of the staged compilation pipeline
   (source -> training), so the harness and the production consumers agree
   on how graphs are built. *)
let training_graph model =
  (Pipeline.differentiate (Pipeline.of_model model))
    .Pipeline.autodiff.Echo_autodiff.Grad.graph

let echo budget = Planner.instantiate ~knobs:[ ("budget", budget) ] "echo"

(* Policy comparison set used by the headline experiments — resolved
   through the planner registry, like every other consumer. *)
let policies =
  [
    Planner.instantiate "stash-all";
    Planner.instantiate "mirror-all-cheap";
    Planner.instantiate "checkpoint-sqrt";
    echo 0.03;
    echo 0.10;
    echo 0.30;
  ]

(* Memoised policy reports per named graph so E2/E3/E5/E7 share work. *)
let report_cache : (string, (Planner.instance * Pass.report) list) Hashtbl.t =
  Hashtbl.create 8

let policy_reports name graph =
  match Hashtbl.find_opt report_cache name with
  | Some rs -> rs
  | None ->
    let optimized =
      Pipeline.optimize ~enabled:false (Pipeline.of_training_graph ~name graph)
    in
    let rs =
      List.map
        (fun inst ->
          (inst, (Pipeline.rewrite ~device ~planner:inst optimized).Pipeline.report))
        policies
    in
    Hashtbl.replace report_cache name rs;
    rs

(* Whether [a] and [b] hold the same float bits, element by element:
   [Tensor.equal]'s float [=] takes -0 for +0 and fails on every NaN. *)
let bits_equal a b =
  let open Echo_tensor in
  Tensor.numel a = Tensor.numel b
  &&
  let ok = ref true in
  for i = 0 to Tensor.numel a - 1 do
    if
      Int64.bits_of_float (Tensor.get1 a i)
      <> Int64.bits_of_float (Tensor.get1 b i)
    then ok := false
  done;
  !ok

(* The documented matmul semantics as a plain triple loop over row-major
   arrays into [dst] ([m x n]): each output element accumulates [product +. acc] over
   ascending l from +0, skipping terms whose a-side factor is exactly 0.0
   — the oracle of the tensor test suite. E16's bit reference and its
   baseline column. *)
let matmul_loops ?(trans_a = false) ?(trans_b = false) ~m ~n ~k
    (a : float array) (b : float array) ~(dst : float array) =
  let out = dst in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        let x = if trans_a then a.((l * m) + i) else a.((i * k) + l) in
        if x <> 0.0 then
          let y = if trans_b then b.((j * k) + l) else b.((l * n) + j) in
          acc := (x *. y) +. !acc
      done;
      out.((i * n) + j) <- !acc
    done
  done

(* Reference loops for E16's elementwise rows: each computes, one element
   at a time, the OCaml scalar expression the C kernel it checks
   documents (elementwise_kernel.h), over row-major arrays, writing into
   [dst]. *)
let binary_loops op (x : float array) (y : float array) ~(dst : float array) =
  let d = dst in
  for i = 0 to Array.length d - 1 do
    d.(i) <-
      (match op with
      | `Add -> x.(i) +. y.(i)
      | `Sub -> x.(i) -. y.(i)
      | `Mul -> x.(i) *. y.(i)
      | `Div -> x.(i) /. y.(i))
  done

(* [scale] is [c *. x] and [add_scalar] is [c +. x]: the constant is the
   first operand. *)
let scalar_loops op c (x : float array) ~(dst : float array) =
  let d = dst in
  for i = 0 to Array.length d - 1 do
    d.(i) <- (match op with `Scale -> c *. x.(i) | `Add_scalar -> c +. x.(i))
  done

(* The chain [f_mul 1; f_add 2; f_scale c; f_add_scalar k] over operands
   [x; y; z]: per element ((x *. y) +. z), then [c *. _], then [k +. _]. *)
let chain_loops ~c ~k (x : float array) (y : float array) (z : float array)
    ~(dst : float array) =
  let d = dst in
  for i = 0 to Array.length d - 1 do
    let acc = (x.(i) *. y.(i)) +. z.(i) in
    let acc = c *. acc in
    d.(i) <- k +. acc
  done

(* The sum over the middle axis of an [outer x n x inner] tensor: each
   output element accumulates [acc +. x] from +0 over ascending a. *)
let reduce_sum_loops ~outer ~n ~inner (src : float array) ~(dst : float array)
    =
  let s = src and d = dst in
  for o = 0 to outer - 1 do
    for k = 0 to inner - 1 do
      let acc = ref 0.0 in
      for a = 0 to n - 1 do
        acc := !acc +. s.((((o * n) + a) * inner) + k)
      done;
      d.((o * inner) + k) <- !acc
    done
  done

(* The slice [lo, hi) of the middle axis of an [outer x n x inner]
   tensor, element by element. *)
let slice_loops ~outer ~n ~inner ~lo ~hi (src : float array)
    ~(dst : float array) =
  let s = src and d = dst in
  let w = hi - lo in
  for o = 0 to outer - 1 do
    for a = 0 to w - 1 do
      for k = 0 to inner - 1 do
        d.((((o * w) + a) * inner) + k) <- s.((((o * n) + lo + a) * inner) + k)
      done
    done
  done

let mib bytes = float_of_int bytes /. (1024.0 *. 1024.0)
let ms s = 1000.0 *. s

let heading id title =
  Format.printf "@.==== %s: %s ====@." id title

let row fmt = Format.printf fmt

(* Wall-clock timing for the perf experiments. [Sys.time] counts CPU time
   summed over domains, which hides (or actively penalises) multicore
   speedups. *)
let wall () = Unix.gettimeofday ()

(* Seconds per call of [f] over [reps] back-to-back calls, with no warm-up;
   the total is clamped at 1 ns so a rate never divides by zero. Every
   repeated-call timing loop in the experiments goes through here. *)
let per_call ~reps f =
  let t0 = wall () in
  for _ = 1 to reps do
    f ()
  done;
  Float.max (wall () -. t0) 1e-9 /. float_of_int reps

(* Machine-readable results so the perf trajectory can be compared across
   PRs: E15/E16/E17 land in BENCH_E15.json (the default path), E18 in
   BENCH_E18.json. Sections accumulate in run order, keyed by output file,
   and [json_flush] writes each file once at process exit; a file is only
   written when one of its experiments ran. A section's [tags] are string
   fields written before its numbers. *)
let json_fragments :
    (string * string * (string * string) list * (string * float) list) list
    ref =
  ref []

(* A number field as [json_flush] writes it. *)
let json_number v = Printf.sprintf "%.6g" v

let record_json ?(path = "BENCH_E15.json") ?(tags = []) section fields =
  json_fragments := !json_fragments @ [ (path, section, tags, fields) ]

let json_flush () =
  let paths =
    List.fold_left
      (fun acc (p, _, _, _) -> if List.mem p acc then acc else acc @ [ p ])
      [] !json_fragments
  in
  List.iter
    (fun path ->
      let sections =
        List.filter_map
          (fun (p, s, t, f) -> if p = path then Some (s, t, f) else None)
          !json_fragments
      in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (section, tags, fields) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (Printf.sprintf "  %S: {\n" section);
          List.iteri
            (fun j line ->
              if j > 0 then Buffer.add_string buf ",\n";
              Buffer.add_string buf ("    " ^ line))
            (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) tags
            @ List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_number v)) fields);
          Buffer.add_string buf "\n  }")
        sections;
      Buffer.add_string buf "\n}\n";
      let oc = open_out path in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Format.printf "wrote %s@." path)
    paths

(* The inverse of [json_flush]: every field line of a file it wrote,
   over all sections, that [scan] reads as a key and a value. *)
let read_json_fields scan path =
  let ic = open_in path in
  let fields = Hashtbl.create 256 in
  (try
     while true do
       let line = input_line ic in
       match Scanf.sscanf line " %S: %r" scan (fun k v -> (k, v)) with
       | key, Some value -> Hashtbl.replace fields key value
       | _, None -> ()
       | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ()
     done
   with End_of_file -> ());
  close_in ic;
  fields

(* The tags, read back with the [%S] escapes they were written with;
   number fields and section lines are skipped. *)
let read_json_tags =
  read_json_fields (fun ib -> Some (Scanf.bscanf ib "%S" Fun.id))

(* The number fields, as the text [json_number] wrote; tags and section
   lines are skipped. *)
let read_json_numbers =
  read_json_fields (fun ib ->
      match Scanf.bscanf ib "%[-+.0-9a-z]" Fun.id with
      | "" -> None
      | v -> Some v)

(* Compare a run's exact facts with the record at [path], read by [read]:
   one [violation] per fact the record lacks or holds another value for,
   and per recorded fact the run did not produce. *)
let check_record ~violation ~read path facts =
  if not (Sys.file_exists path) then
    violation (Printf.sprintf "no %s to check the facts against" path)
  else begin
    let recorded = read path in
    List.iter
      (fun (k, v) ->
        match Hashtbl.find_opt recorded k with
        | None -> violation (Printf.sprintf "%s = %s is not in the record" k v)
        | Some r when r <> v ->
          violation (Printf.sprintf "%s = %s, recorded %s" k v r)
        | Some _ -> ())
      facts;
    Hashtbl.iter
      (fun k r ->
        if not (List.mem_assoc k facts) then
          violation (Printf.sprintf "recorded %s = %s was not produced" k r))
      recorded
  end

(* Pearson correlation. *)
let pearson xs ys =
  let n = float_of_int (List.length xs) in
  let mean l = List.fold_left ( +. ) 0.0 l /. n in
  let mx = mean xs and my = mean ys in
  let cov =
    List.fold_left2 (fun acc x y -> acc +. ((x -. mx) *. (y -. my))) 0.0 xs ys
  in
  let var l m = List.fold_left (fun acc v -> acc +. ((v -. m) ** 2.0)) 0.0 l in
  cov /. sqrt (var xs mx *. var ys my)

let iteration_time ?(optimizer = Footprint.Momentum) graph model =
  let params = model.Model.params in
  Echo_gpusim.Costmodel.graph_time device graph
  +. Echo_gpusim.Costmodel.optimizer_update_time device
       ~weight_bytes:(Params.total_bytes params)
       ~param_count:(Params.count params)
       ~state_tensors:(Footprint.state_multiplier optimizer)

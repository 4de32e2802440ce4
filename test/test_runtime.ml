(* The fault-tolerant training runtime: fault plans, checkpoints, budget
   enforcement, and the Loop recovery paths (OOM re-planning, transient
   retry/skip, NaN guard, kill-and-resume). *)

open Echo_tensor
open Echo_ir
open Echo_runtime
open Echo_train
open Echo_workloads

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dev = Echo_gpusim.Device.titan_xp

let bits_equal a b =
  (Float.is_nan a && Float.is_nan b) || Int64.bits_of_float a = Int64.bits_of_float b

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = affix || scan (i + 1)) in
  n = 0 || scan 0

(* Fault plans *)

let test_fault_parse_and_take () =
  let plan = Fault.parse "oom@3=1048576; transient@5=flaky-link ;nan@7;oom@9=75%" in
  check_bool "nothing at step 1" true (Fault.take plan ~step:1 = None);
  (match Fault.take plan ~step:3 with
  | Some (Fault.Oom { budget_bytes }) -> check_int "bytes" 1_048_576 budget_bytes
  | _ -> Alcotest.fail "expected oom at step 3");
  check_bool "consumed" true (Fault.take plan ~step:3 = None);
  (match Fault.take plan ~step:5 with
  | Some (Fault.Transient why) -> Alcotest.(check string) "reason" "flaky-link" why
  | _ -> Alcotest.fail "expected transient at step 5");
  check_bool "nan" true (Fault.take plan ~step:7 = Some Fault.Nan_poison);
  (match Fault.take plan ~step:9 with
  | Some (Fault.Oom_shrink { fraction }) ->
    check_bool "75%" true (Float.abs (fraction -. 0.75) < 1e-9)
  | _ -> Alcotest.fail "expected relative oom at step 9");
  check_bool "drained" true (Fault.is_empty plan)

let test_fault_same_step_fires_across_retries () =
  let plan =
    Fault.of_specs
      [ { Fault.step = 2; kind = Fault.Transient "first" };
        { Fault.step = 2; kind = Fault.Transient "second" } ]
  in
  check_bool "first" true (Fault.take plan ~step:2 = Some (Fault.Transient "first"));
  check_bool "second" true (Fault.take plan ~step:2 = Some (Fault.Transient "second"));
  check_bool "then clear" true (Fault.take plan ~step:2 = None)

let test_fault_bad_specs () =
  let raises s =
    match Fault.parse s with
    | _ -> false
    | exception Fault.Bad_spec msg ->
      (* the error names the offending entry *)
      contains ~affix:(String.trim s) msg
  in
  List.iter
    (fun s -> check_bool s true (raises s))
    [ "oom@x=5"; "oom@1"; "bogus@1"; "nan@1=3"; "flaky@1"; "oom@1=abc%"; "3";
      "flip@1"; "flip@1=param:5:64"; "flip@1=param:-1:3"; "flip@1=act:1:2";
      "flip@1=act:1:2:3:4"; "flipflaky@1" ]

let test_fault_flaky_deterministic () =
  let draws () =
    let plan = Fault.of_specs ~flaky:(42, 400) [] in
    List.init 64 (fun step -> Fault.take plan ~step <> None)
  in
  let a = draws () and b = draws () in
  check_bool "same verdicts" true (a = b);
  check_bool "fires sometimes" true (List.exists Fun.id a);
  check_bool "passes sometimes" true (List.exists not a);
  (* one draw per step: a retry at the same step sees no second flaky fault *)
  let plan = Fault.of_specs ~flaky:(42, 1000) [] in
  check_bool "first draw fires" true (Fault.take plan ~step:0 <> None);
  check_bool "retry sees none" true (Fault.take plan ~step:0 = None)

let test_fault_to_string_roundtrip () =
  let text = "oom@3=1024;transient@5=why;nan@7" in
  let plan = Fault.parse text in
  check_bool "printable" true (Fault.to_string plan = text);
  Alcotest.(check string) "empty plan" "" (Fault.to_string Fault.none)

let test_fault_flip_parse_and_take () =
  let text = "flip@2=param:100:52;flip@2=act:3:7:62;flipflaky@9=500" in
  check_bool "flip grammar round-trips" true
    (Fault.to_string (Fault.parse text) = text);
  let plan = Fault.parse "flip@2=param:100:52;flip@2=act:3:7:62" in
  check_bool "nothing at step 1" true (Fault.take plan ~step:1 = None);
  check_bool "first flip" true
    (Fault.take plan ~step:2
    = Some (Fault.Flip_param { index = 100; bit = 52 }));
  (* consume-on-retry: a second take at the same step (a retry) draws the
     next armed fault, not the already-consumed one again *)
  check_bool "second flip services the retry" true
    (Fault.take plan ~step:2
    = Some (Fault.Flip_act { site = 3; index = 7; bit = 62 }));
  check_bool "then clear" true (Fault.take plan ~step:2 = None);
  check_bool "drained" true (Fault.is_empty plan)

let test_fault_flipflaky_deterministic () =
  let draws () =
    let plan = Fault.of_specs ~flip_flaky:(7, 600) [] in
    List.init 64 (fun step -> Fault.take plan ~step)
  in
  let a = draws () in
  check_bool "same draws on replay" true (a = draws ());
  check_bool "fires sometimes" true (List.exists (fun d -> d <> None) a);
  check_bool "passes sometimes" true (List.exists (fun d -> d = None) a);
  List.iter
    (function
      | Some (Fault.Flip_param { index; bit }) ->
        check_bool "drawn flip in bounds" true
          (index >= 0 && index < 1_048_576 && bit >= 0 && bit < 64)
      | Some _ -> Alcotest.fail "flipflaky draws parameter flips only"
      | None -> ())
    a;
  (* one draw per (seed, step): a retry at the same step sees no second *)
  let plan = Fault.of_specs ~flip_flaky:(7, 1000) [] in
  check_bool "first draw fires" true (Fault.take plan ~step:0 <> None);
  check_bool "retry sees none" true (Fault.take plan ~step:0 = None)

(* The whole grammar — every kind, every knob — survives a
   parse/to_string round trip, both as text and structurally. *)
let prop_fault_grammar_roundtrip =
  let open QCheck in
  let gen_kind =
    Gen.oneof
      [
        Gen.map
          (fun b -> Fault.Oom { budget_bytes = b })
          (Gen.int_range 1 1_000_000_000);
        Gen.map
          (fun p -> Fault.Oom_shrink { fraction = float_of_int p /. 100.0 })
          (Gen.int_range 1 99);
        Gen.map
          (fun w -> Fault.Transient w)
          (Gen.oneofl [ "injected"; "link-down"; "ecc"; "w0" ]);
        Gen.return Fault.Nan_poison;
        Gen.map2
          (fun index bit -> Fault.Flip_param { index; bit })
          (Gen.int_range 0 1_000_000) (Gen.int_range 0 63);
        Gen.map3
          (fun site index bit -> Fault.Flip_act { site; index; bit })
          (Gen.int_range 0 500) (Gen.int_range 0 100_000) (Gen.int_range 0 63);
      ]
  in
  let gen_plan =
    Gen.map3
      (fun specs flaky flip_flaky -> Fault.of_specs ?flaky ?flip_flaky specs)
      (Gen.list_size (Gen.int_range 0 8)
         (Gen.map2
            (fun step kind -> { Fault.step; kind })
            (Gen.int_range 0 99) gen_kind))
      (Gen.opt (Gen.pair (Gen.int_range 0 999) (Gen.int_range 0 1000)))
      (Gen.opt (Gen.pair (Gen.int_range 0 999) (Gen.int_range 0 1000)))
  in
  QCheck.Test.make ~name:"fault grammar round-trips through parse/to_string"
    ~count:200
    (QCheck.make ~print:Fault.to_string gen_plan)
    (fun plan ->
      let text = Fault.to_string plan in
      let re = Fault.parse text in
      Fault.to_string re = text && Fault.specs re = Fault.specs plan)

(* Events *)

let test_event_to_string () =
  let events =
    [ Event.Budget_hit { step = 3; requested_bytes = 10; budget_bytes = 5 };
      Event.Replan { step = 3; planner = "echo(5%)"; footprint_bytes = 4; budget_bytes = 5 };
      Event.Fault_injected
        {
          step = 4;
          fault = Fault.Flip_param { index = 7; bit = 52 };
          target = "embedding[7] bit 52";
        };
      Event.Retry { step = 4; attempt = 1; fault = Fault.Transient "injected" };
      Event.Skip { step = 4; retries = 2; fault = Fault.Transient "still failing" };
      Event.Nan_guard { step = 5; loss = Float.nan; grad_norm = 1.0 };
      Event.Checkpoint_write { step = 6; path = "x.ckpt" };
      Event.Checkpoint_load { step = 6; path = "x.ckpt" } ]
  in
  List.iter
    (fun e ->
      let s = Event.to_string e in
      check_bool "non-empty" true (String.length s > 0);
      check_bool "names the step" true
        (contains ~affix:"step" (String.lowercase_ascii s)))
    events

(* Checkpoints *)

let sample_checkpoint () =
  {
    Checkpoint.step = 7;
    rng_state = Some 0x1234_5678_9abc_def0L;
    opt_steps = 7;
    losses = [ 4.5; 1.0 /. 3.0; Float.nan; Float.neg_infinity; -0.0 ];
    params =
      [ ("embedding table", Tensor.of_list1 [ 1.5; -2.25; Float.pi ]);
        ("w%escaped",
         Tensor.init [| 2; 2 |] (fun i -> float_of_int ((i.(0) * 2) + i.(1)) /. 7.0)) ];
    slots =
      [ ("velocity", [ (0, Tensor.of_list1 [ 0.125 ]) ]);
        ("second", [ (1, Tensor.of_list1 [ 1e-30; 3.0 ]) ]) ];
  }

let with_temp f =
  let path = Filename.temp_file "echo_test" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_checkpoint_roundtrip () =
  with_temp (fun path ->
      let t = sample_checkpoint () in
      Checkpoint.save ~path t;
      let r = Checkpoint.load path in
      check_int "step" t.Checkpoint.step r.Checkpoint.step;
      check_bool "rng" true (r.Checkpoint.rng_state = t.Checkpoint.rng_state);
      check_int "opt steps" t.Checkpoint.opt_steps r.Checkpoint.opt_steps;
      check_bool "losses bit-exact" true
        (List.for_all2 bits_equal t.Checkpoint.losses r.Checkpoint.losses);
      List.iter2
        (fun (n1, v1) (n2, v2) ->
          Alcotest.(check string) "param name" n1 n2;
          check_bool "param tensor" true (Tensor.equal v1 v2))
        t.Checkpoint.params r.Checkpoint.params;
      List.iter2
        (fun (s1, l1) (s2, l2) ->
          Alcotest.(check string) "slot name" s1 s2;
          List.iter2
            (fun (i1, v1) (i2, v2) ->
              check_int "slot index" i1 i2;
              check_bool "slot tensor" true (Tensor.equal v1 v2))
            l1 l2)
        t.Checkpoint.slots r.Checkpoint.slots)

let test_checkpoint_missing_file () =
  check_bool "raises" true
    (try
       ignore (Checkpoint.load "/nonexistent/echo.ckpt");
       false
     with Checkpoint.Corrupt _ -> true)

let corrupt_raises path =
  try
    ignore (Checkpoint.load path);
    false
  with Checkpoint.Corrupt _ -> true

let test_checkpoint_detects_tampering () =
  with_temp (fun path ->
      Checkpoint.save ~path (sample_checkpoint ());
      let body = In_channel.with_open_bin path In_channel.input_all in
      (* flip one digit inside the body: the checksum must catch it *)
      let flipped = Bytes.of_string body in
      let i = String.index body '7' in
      Bytes.set flipped i '8';
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc flipped);
      check_bool "bit flip detected" true (corrupt_raises path);
      (* drop the checksum line entirely *)
      let cut = String.rindex body 'c' in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub body 0 cut));
      check_bool "truncation detected" true (corrupt_raises path);
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "not a checkpoint\n");
      check_bool "garbage detected" true (corrupt_raises path))

(* Corruption paths name their cause, so an operator reading the Corrupt
   payload knows whether the file was cut short, bit-flipped, or
   structurally mangled. *)

let corrupt_message path =
  try
    ignore (Checkpoint.load path);
    None
  with Checkpoint.Corrupt msg -> Some msg

let expect_corrupt ~affix path what =
  match corrupt_message path with
  | Some msg -> check_bool (what ^ ": " ^ msg) true (contains ~affix msg)
  | None -> Alcotest.fail (what ^ " was accepted")

let test_checkpoint_truncated_names_cause () =
  with_temp (fun path ->
      Checkpoint.save ~path (sample_checkpoint ());
      let all = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub all 0 (String.length all / 2)));
      expect_corrupt ~affix:"checksum" path "truncated file")

let test_checkpoint_flipped_checksum_byte_names_cause () =
  with_temp (fun path ->
      Checkpoint.save ~path (sample_checkpoint ());
      let all = In_channel.with_open_bin path In_channel.input_all in
      (* the file ends "checksum HEX\n": flip one digit of HEX — still
         well-formed hex, so only the verification itself can object *)
      let i = String.rindex all ' ' + 1 in
      let b = Bytes.of_string all in
      Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
      expect_corrupt ~affix:"mismatch" path "flipped checksum byte")

(* FNV-1a 64, matching the checkpoint writer: lets the test mangle the
   body and re-seal it, so the structural parser (not the checksum) is
   what must object. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let test_checkpoint_missing_slot_field_names_cause () =
  with_temp (fun path ->
      Checkpoint.save ~path (sample_checkpoint ());
      let all = In_channel.with_open_bin path In_channel.input_all in
      let keep l =
        String.trim l <> ""
        && not (String.length l >= 8 && String.sub l 0 8 = "checksum")
      in
      let mangle l =
        if String.length l >= 4 && String.sub l 0 4 = "slot" then
          match String.split_on_char ' ' l with
          | tag :: name :: idx :: _ -> String.concat " " [ tag; name; idx ]
          | _ -> l
        else l
      in
      let body =
        String.concat ""
          (List.map
             (fun l -> mangle l ^ "\n")
             (List.filter keep (String.split_on_char '\n' all)))
      in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc body;
          Out_channel.output_string oc
            (Printf.sprintf "checksum %Lx\n" (fnv1a body)));
      expect_corrupt ~affix:"unrecognised" path "slot line missing its tensor")

(* Golden bytes: a checkpoint holding every float the hex encoding treats
   specially, a scalar, a 2-D tensor and a name that needs escaping is
   byte-for-byte the format written the plain way — each line built with
   [Printf] ([%h] for losses) and [Serial.tensor_to_string], sealed with
   the FNV-1a checksum — and it loads back. *)
let golden_floats =
  [|
    Float.nan;
    Float.neg Float.nan;
    Float.infinity;
    Float.neg_infinity;
    -0.0;
    0.0;
    Float.succ 0.0 (* smallest subnormal *);
    Float.neg (Float.succ 0.0);
    Int64.float_of_bits 0x000f_ffff_ffff_ffffL (* largest subnormal *);
    Int64.float_of_bits 0x0000_0000_0100_0000L;
    Float.min_float;
    Float.max_float;
    1.0;
    -1.5;
    Float.pi;
    1e-300;
    -3.0e150;
  |]

let test_checkpoint_golden_bytes () =
  let matrix =
    Tensor.create [| 2; 9 |]
      (Array.init 18 (fun i ->
           golden_floats.(i mod Array.length golden_floats)))
  in
  let t =
    {
      Checkpoint.step = 12;
      rng_state = Some 0xfeed_beefL;
      opt_steps = 11;
      losses = Array.to_list golden_floats;
      params =
        [
          ("enc layer 0%w\nx", matrix);
          ("scale", Tensor.scalar (-0.0));
          ("b", Tensor.of_list1 [ Float.nan; 2.5 ]);
        ];
      slots =
        [
          ("velocity", [ (0, Tensor.map (fun x -> x /. 3.0) matrix); (2, Tensor.of_list1 [ 0.0; -0.0 ]) ]);
          ("second moment", [ (1, Tensor.scalar Float.infinity) ]);
        ];
    }
  in
  let reference =
    let b = Buffer.create 4096 in
    let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
    line "echo-checkpoint v1";
    line "step %d" t.Checkpoint.step;
    line "opt-steps %d" t.Checkpoint.opt_steps;
    line "rng %Lx" (Option.get t.Checkpoint.rng_state);
    List.iter (fun l -> line "loss %h" l) t.Checkpoint.losses;
    List.iter
      (fun (name, v) ->
        line "param %s %s" (Serial.escape name) (Serial.tensor_to_string v))
      t.Checkpoint.params;
    List.iter
      (fun (slot, entries) ->
        List.iter
          (fun (i, v) ->
            line "slot %s %d %s" (Serial.escape slot) i
              (Serial.tensor_to_string v))
          entries)
      t.Checkpoint.slots;
    let body = Buffer.contents b in
    body ^ Printf.sprintf "checksum %Lx\n" (fnv1a body)
  in
  (* [tensor_to_string] itself is pinned to [%h], element by element. *)
  check_bool "tensor_to_string is %h" true
    (Serial.tensor_to_string matrix
    = "2x9:"
      ^ String.concat ","
          (List.map (Printf.sprintf "%h") (Array.to_list (Tensor.to_array matrix))));
  with_temp (fun path ->
      Checkpoint.save ~path t;
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) "golden bytes" reference bytes;
      let r = Checkpoint.load path in
      check_bool "losses load" true
        (List.for_all2 bits_equal t.Checkpoint.losses r.Checkpoint.losses);
      List.iter2
        (fun (n1, v1) (n2, v2) ->
          Alcotest.(check string) "name" n1 n2;
          check_bool "values load" true
            (Shape.equal (Tensor.shape v1) (Tensor.shape v2)
            && Array.for_all2 bits_equal (Tensor.to_array v1) (Tensor.to_array v2)))
        t.Checkpoint.params r.Checkpoint.params;
      check_int "slot groups" 2 (List.length r.Checkpoint.slots))

(* The allocation-free hex renderer against [%h] over random bit
   patterns: every exponent range, signs and payloads. *)
let test_float_hex_matches_printf () =
  (* Rendered at a nonzero offset into a buffer with exactly
     [float_hex_max] bytes left. *)
  let render x =
    let b = Bytes.make (3 + Serial.float_hex_max) '#' in
    Bytes.sub_string b 3 (Serial.put_float_hex b 3 x - 3)
  in
  let rng = Rng.create 99 in
  for _ = 1 to 20_000 do
    let bits =
      Int64.logor
        (Int64.shift_left (Int64.of_int (Rng.int rng (1 lsl 30))) 34)
        (Int64.of_int (Rng.int rng (1 lsl 30) * 16 + Rng.int rng 16))
    in
    (* Half the draws zero the low mantissa bits, to hit short digit runs. *)
    let bits = if Rng.int rng 2 = 0 then Int64.logand bits (-0x1_0000_0000L) else bits in
    let x = Int64.float_of_bits bits in
    let got = render x in
    let want = Printf.sprintf "%h" x in
    if got <> want then
      Alcotest.failf "%Lx: rendered %s, %%h gives %s" bits got want
  done;
  Array.iter
    (fun x ->
      Alcotest.(check string) "special" (Printf.sprintf "%h" x) (render x))
    golden_floats

let test_serial_tensor_roundtrip () =
  let t =
    Tensor.init [| 3; 2 |] (fun i ->
        (float_of_int ((i.(0) * 2) + i.(1)) /. 3.0) -. 1.0)
  in
  let r = Serial.tensor_of_string (Serial.tensor_to_string t) in
  check_bool "bit-exact" true (Tensor.equal t r);
  check_bool "shape kept" true (Shape.equal (Tensor.shape t) (Tensor.shape r))

let test_rng_state_roundtrip () =
  let r1 = Rng.create 7 in
  for _ = 1 to 5 do
    ignore (Rng.float r1)
  done;
  let s = Rng.state r1 in
  let r2 = Rng.create 999 in
  Rng.set_state r2 s;
  for _ = 1 to 8 do
    check_bool "same stream" true (bits_equal (Rng.float r1) (Rng.float r2))
  done

(* Budget enforcement *)

let lm_setup ?(steps = 8) ?(vocab = 60) ?(width = 12) () =
  let open Echo_models in
  let lm =
    Language_model.build
      {
        Language_model.ptb_default with
        vocab;
        embed = width;
        hidden = width;
        layers = 2;
        seq_len = 6;
        batch = 3;
        dropout = 0.2;
      }
  in
  let training = Model.training lm.Language_model.model in
  let graph = training.Echo_autodiff.Grad.graph in
  let params = Params.bindings lm.Language_model.model.Model.params in
  let stream = Corpus.generate ~seed:11 ~vocab ~length:2_000 in
  let batches =
    List.map
      (fun (tokens, labels) ->
        [ (lm.Language_model.token_input, tokens);
          (lm.Language_model.label_input, labels) ])
      (Corpus.lm_batches stream ~batch:3 ~seq_len:6 ~steps)
  in
  (graph, params, batches, lm)

let stash_footprint graph =
  Echo_compiler.Executor.footprint_bytes
    (Echo_compiler.Pipeline.executor (Echo_compiler.Pipeline.compile_graph graph))

let test_budget_exceeded_is_typed () =
  let graph, _, _, _ = lm_setup () in
  let footprint = stash_footprint graph in
  (* exactly at the footprint: compiles *)
  ignore (Echo_compiler.Pipeline.compile_graph ~budget_bytes:footprint graph);
  (* one byte short: typed failure carrying both sides of the violation *)
  match Echo_compiler.Pipeline.compile_graph ~budget_bytes:(footprint - 1) graph with
  | _ -> Alcotest.fail "must not fit one byte under its own footprint"
  | exception Echo_compiler.Executor.Budget_exceeded { requested_bytes; budget_bytes } ->
    check_int "allowed" (footprint - 1) budget_bytes;
    check_bool "requested over budget" true (requested_bytes > budget_bytes)

(* Loop recovery *)

let sgd () = Optimizer.create (Optimizer.Sgd { lr = 0.5 })

let adam () =
  Optimizer.create (Optimizer.Adam { lr = 0.05; beta1 = 0.9; beta2 = 0.999; eps = 1e-8 })

let losses_bit_identical a b =
  List.length a = List.length b && List.for_all2 bits_equal a b

(* The acceptance differential: an OOM injected mid-run at a budget some
   Echo rung fits must trigger exactly one re-plan and leave the loss
   trajectory bit-identical to an unfaulted run compiled directly at the
   surviving policy. *)
let test_oom_replan_differential () =
  let graph, params, batches, _ = lm_setup () in
  let budget = stash_footprint graph - 1 in
  let outcome =
    match Echo_core.Autotune.fit_memory ~device:dev graph ~budget_bytes:budget with
    | Some o -> o
    | None -> Alcotest.fail "an escalation rung must fit one byte under stash-all"
  in
  check_bool "survivor is a real rewrite" true
    (Echo_core.Autotune.label outcome <> "stash-all");
  let reference =
    Loop.train ~graph:outcome.Echo_core.Autotune.graph ~params ~optimizer:(sgd ())
      ~clip_norm:5.0 ~faults:Fault.none ~batches ()
  in
  let events = ref [] in
  let faulted =
    Loop.train ~graph ~params ~optimizer:(sgd ()) ~clip_norm:5.0
      ~faults:(Fault.of_specs [ { Fault.step = 3; kind = Fault.Oom { budget_bytes = budget } } ])
      ~on_event:(fun e -> events := e :: !events)
      ~batches ()
  in
  let replans =
    List.filter_map
      (function
        | Event.Replan { planner; footprint_bytes; _ } -> Some (planner, footprint_bytes)
        | _ -> None)
      (List.rev !events)
  in
  check_int "exactly one replan" 1 (List.length replans);
  let planner, footprint_bytes = List.hd replans in
  Alcotest.(check string) "surviving planner"
    (Echo_core.Autotune.label outcome)
    planner;
  check_bool "under budget" true (footprint_bytes <= budget);
  check_bool "budget hit surfaced first" true
    (match List.rev !events with Event.Budget_hit _ :: _ -> true | _ -> false);
  check_bool "losses bit-identical" true
    (losses_bit_identical reference.Loop.losses faulted.Loop.losses);
  List.iter2
    (fun (_, a) (_, b) -> check_bool "params bit-identical" true (Tensor.equal a b))
    reference.Loop.params faulted.Loop.params

let test_oom_infeasible_budget_escapes () =
  let graph, params, batches, _ = lm_setup ~steps:2 () in
  match
    Loop.train ~graph ~params ~optimizer:(sgd ()) ~faults:Fault.none
      ~budget_bytes:4096 ~batches ()
  with
  | _ -> Alcotest.fail "4 KiB cannot hold the model"
  | exception Echo_compiler.Executor.Budget_exceeded { budget_bytes; _ } ->
    check_int "carries the ceiling" 4096 budget_bytes

let test_transient_retry_is_transparent () =
  let graph, params, batches, _ = lm_setup () in
  let clean =
    Loop.train ~graph ~params ~optimizer:(sgd ()) ~faults:Fault.none ~batches ()
  in
  let events = ref [] in
  let faulted =
    Loop.train ~graph ~params ~optimizer:(sgd ())
      ~faults:(Fault.of_specs [ { Fault.step = 2; kind = Fault.Transient "blip" } ])
      ~on_event:(fun e -> events := e :: !events)
      ~batches ()
  in
  let retries = List.filter (function Event.Retry _ -> true | _ -> false) !events in
  let skips = List.filter (function Event.Skip _ -> true | _ -> false) !events in
  check_int "one retry" 1 (List.length retries);
  check_int "no skip" 0 (List.length skips);
  check_bool "retry leaves losses untouched" true
    (losses_bit_identical clean.Loop.losses faulted.Loop.losses)

let test_transient_exhaustion_skips_step () =
  let graph, params, batches, _ = lm_setup () in
  let persistent =
    Fault.of_specs
      (List.init 3 (fun _ -> { Fault.step = 2; kind = Fault.Transient "dead link" }))
  in
  let events = ref [] in
  let result =
    Loop.train ~graph ~params ~optimizer:(sgd ()) ~faults:persistent ~max_retries:2
      ~on_event:(fun e -> events := e :: !events)
      ~batches ()
  in
  let retries = List.filter (function Event.Retry _ -> true | _ -> false) !events in
  check_int "two retries" 2 (List.length retries);
  (match
     List.filter_map
       (function
         | Event.Skip { step; retries; fault } -> Some (step, retries, fault)
         | _ -> None)
       !events
   with
  | [ (step, retries, fault) ] ->
    check_int "skipped step" 2 step;
    check_int "retry count in payload" 2 retries;
    check_bool "fault kind survives, typed" true
      (fault = Fault.Transient "dead link")
  | l -> Alcotest.fail (Printf.sprintf "expected one skip, saw %d" (List.length l)));
  check_int "one loss missing" (List.length batches - 1) (List.length result.Loop.losses)

let test_nan_guard_protects_params () =
  let graph, params, batches, _ = lm_setup () in
  let clean =
    Loop.train ~graph ~params ~optimizer:(sgd ()) ~faults:Fault.none ~batches ()
  in
  let events = ref [] in
  let poisoned =
    Loop.train ~graph ~params ~optimizer:(sgd ())
      ~faults:(Fault.of_specs [ { Fault.step = 2; kind = Fault.Nan_poison } ])
      ~on_event:(fun e -> events := e :: !events)
      ~batches ()
  in
  (match
     List.filter_map
       (function Event.Nan_guard { step; loss; _ } -> Some (step, loss) | _ -> None)
       !events
   with
  | [ (step, loss) ] ->
    check_int "guarded step" 2 step;
    check_bool "loss was non-finite" true (not (Float.is_finite loss))
  | l -> Alcotest.fail (Printf.sprintf "expected one nan guard, saw %d" (List.length l)));
  check_int "loss history complete" (List.length batches) (List.length poisoned.Loop.losses);
  check_bool "nan recorded in history" true (Float.is_nan (List.nth poisoned.Loop.losses 2));
  (* before the poisoned step the runs are identical *)
  check_bool "prefix identical" true
    (bits_equal (List.nth clean.Loop.losses 0) (List.nth poisoned.Loop.losses 0)
    && bits_equal (List.nth clean.Loop.losses 1) (List.nth poisoned.Loop.losses 1));
  (* and the update was skipped, so training continued on finite params *)
  List.iter
    (fun l -> check_bool "later losses finite" true (Float.is_finite l))
    (List.filteri (fun i _ -> i <> 2) poisoned.Loop.losses)

let test_missing_feed_is_named () =
  let graph, params, batches, lm = lm_setup ~steps:2 () in
  let truncated =
    List.map
      (List.filter (fun (node, _) -> node != lm.Echo_models.Language_model.label_input))
      batches
  in
  match Loop.train ~graph ~params ~optimizer:(sgd ()) ~faults:Fault.none ~batches:truncated () with
  | _ -> Alcotest.fail "must refuse to run without the label feed"
  | exception Invalid_argument msg ->
    check_bool "names the step" true (contains ~affix:"step 0" msg);
    check_bool "hints at the batch" true (contains ~affix:"batch" msg)

(* Kill-and-resume: a run interrupted after its last checkpoint write and
   resumed in a fresh loop (fresh optimizer, fresh executor) must reproduce
   the uninterrupted run bit-exactly — losses and parameters. Adam, so the
   optimizer slot state and step counter must survive the round-trip too. *)
let test_checkpoint_resume_bit_exact () =
  let graph, params, batches, _ = lm_setup ~steps:9 () in
  with_temp (fun path ->
      let uninterrupted =
        Loop.train ~graph ~params ~optimizer:(adam ()) ~clip_norm:5.0
          ~faults:Fault.none ~batches ()
      in
      (* first life: killed after step 6; the last checkpoint is at step 4 *)
      let first_six = List.filteri (fun i _ -> i < 6) batches in
      ignore
        (Loop.train ~graph ~params ~optimizer:(adam ()) ~clip_norm:5.0
           ~faults:Fault.none
           ~checkpoint:{ Loop.path; every = 4; resume = false }
           ~batches:first_six ());
      check_int "checkpointed at step 4" 4 (Checkpoint.load path).Checkpoint.step;
      (* second life: resume from the checkpoint over the full batch stream *)
      let events = ref [] in
      let resumed =
        Loop.train ~graph ~params ~optimizer:(adam ()) ~clip_norm:5.0
          ~faults:Fault.none
          ~checkpoint:{ Loop.path; every = 4; resume = true }
          ~on_event:(fun e -> events := e :: !events)
          ~batches ()
      in
      check_bool "load event" true
        (List.exists
           (function Event.Checkpoint_load { step = 4; _ } -> true | _ -> false)
           !events);
      check_bool "losses reproduce the uninterrupted run" true
        (losses_bit_identical uninterrupted.Loop.losses resumed.Loop.losses);
      List.iter2
        (fun (_, a) (_, b) -> check_bool "params reproduce" true (Tensor.equal a b))
        uninterrupted.Loop.params resumed.Loop.params)

(* A checkpoint write streams the live parameter and slot tensors to disk:
   per save it allocates less than the optimizer's slot state itself. (It
   used to deep-copy every slot and copy every tensor again to encode it,
   which grew the heap peak with every save.) Allocation is counted from
   one step's [on_step] to a later one, past compilation; the minor count
   comes from [Gc.minor_words], which, unlike [Gc.quick_stat]'s, includes
   the current minor heap. *)
let test_checkpoint_save_allocation () =
  let graph, params, batches, _ = lm_setup ~steps:6 ~vocab:200 ~width:32 () in
  let slot_bytes =
    (* Adam: a first and a second moment per parameter element *)
    List.fold_left (fun acc (_, t) -> acc + (2 * 8 * Tensor.numel t)) 0 params
  in
  let allocated_bytes () =
    let s = Gc.quick_stat () in
    8.0 *. (Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words)
  in
  with_temp (fun path ->
      (* bytes allocated over the last four steps *)
      let steady checkpoint =
        let marks = ref [] in
        ignore
          (Loop.train ~graph ~params ~optimizer:(adam ()) ~faults:Fault.none
             ?checkpoint
             ~on_step:(fun _ -> marks := allocated_bytes () :: !marks)
             ~batches ());
        List.hd !marks -. List.nth !marks 4
      in
      let saving = steady (Some { Loop.path; every = 1; resume = false }) in
      let per_save = (saving -. steady None) /. 4.0 in
      if per_save >= float_of_int slot_bytes then
        Alcotest.failf "a checkpoint save allocated %.0f bytes (slots: %d)"
          per_save slot_bytes)

let test_checkpoint_rejects_wrong_model () =
  let graph, params, batches, _ = lm_setup ~steps:2 () in
  with_temp (fun path ->
      Checkpoint.save ~path
        { Checkpoint.step = 1; rng_state = None; opt_steps = 1; losses = [ 1.0 ];
          params = [ ("stranger", Tensor.of_list1 [ 0.0 ]) ]; slots = [] };
      check_bool "raises" true
        (try
           ignore
             (Loop.train ~graph ~params ~optimizer:(sgd ()) ~faults:Fault.none
                ~checkpoint:{ Loop.path; every = 0; resume = true }
                ~batches ());
           false
         with Invalid_argument _ -> true))

(* Fail fast on a fault plan the run cannot host: the Bad_spec escapes
   before any compilation, naming the offending entry and the valid
   range. *)
let test_flip_fail_fast_validation () =
  let graph, params, batches, _ = lm_setup ~steps:2 () in
  match
    Loop.train ~graph ~params ~optimizer:(sgd ()) ~device:dev
      ~faults:
        (Fault.of_specs
           [
             {
               Fault.step = 0;
               kind = Fault.Flip_act { site = 100_000; index = 0; bit = 1 };
             };
           ])
      ~batches ()
  with
  | _ -> Alcotest.fail "an impossible activation site must be rejected"
  | exception Fault.Bad_spec msg ->
    check_bool ("names the entry: " ^ msg) true
      (contains ~affix:"flip@0=act:100000:0:1" msg);
    check_bool ("names the range: " ^ msg) true
      (contains ~affix:"injection sites" msg)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    ( "runtime.fault",
      [
        t "parse and take" test_fault_parse_and_take;
        t "same step across retries" test_fault_same_step_fires_across_retries;
        t "bad specs" test_fault_bad_specs;
        t "flaky deterministic" test_fault_flaky_deterministic;
        t "to_string roundtrip" test_fault_to_string_roundtrip;
        t "flip parse and take" test_fault_flip_parse_and_take;
        t "flipflaky deterministic" test_fault_flipflaky_deterministic;
        QCheck_alcotest.to_alcotest prop_fault_grammar_roundtrip;
      ] );
    ( "runtime.event", [ t "to_string" test_event_to_string ] );
    ( "runtime.checkpoint",
      [
        t "roundtrip bit-exact" test_checkpoint_roundtrip;
        t "missing file" test_checkpoint_missing_file;
        t "detects tampering" test_checkpoint_detects_tampering;
        t "truncation names its cause" test_checkpoint_truncated_names_cause;
        t "flipped checksum byte names its cause"
          test_checkpoint_flipped_checksum_byte_names_cause;
        t "missing slot field names its cause"
          test_checkpoint_missing_slot_field_names_cause;
        t "golden bytes" test_checkpoint_golden_bytes;
        t "save allocates less than the slots" test_checkpoint_save_allocation;
        t "hex floats match %h" test_float_hex_matches_printf;
        t "serial tensor roundtrip" test_serial_tensor_roundtrip;
        t "rng state roundtrip" test_rng_state_roundtrip;
      ] );
    ( "runtime.budget", [ t "typed budget violation" test_budget_exceeded_is_typed ] );
    ( "runtime.loop",
      [
        t "oom replan differential" test_oom_replan_differential;
        t "infeasible budget escapes" test_oom_infeasible_budget_escapes;
        t "transient retry transparent" test_transient_retry_is_transparent;
        t "transient exhaustion skips" test_transient_exhaustion_skips_step;
        t "nan guard" test_nan_guard_protects_params;
        t "missing feed named" test_missing_feed_is_named;
        t "flip fail-fast validation" test_flip_fail_fast_validation;
        t "kill and resume bit-exact" test_checkpoint_resume_bit_exact;
        t "wrong checkpoint rejected" test_checkpoint_rejects_wrong_model;
      ] );
  ]

(* Shadow-memory sanitizer for the compiled executor.

   Every slab cell gets a shadow tag: which instruction (schedule slot)
   last wrote it, and in which run (generation). Before an instruction
   runs, the tags of every cell it reads are checked against the plan:
   the cell must have been written, by the producer the graph says feeds
   this instruction, in the current run, and the producer's value must
   still be within its planned lifetime. After the instruction runs, its
   destination cells are stamped. Tags are per cell, so two reused ranges
   that overlap only in part are caught like two that coincide. [Full]
   mode additionally snapshots the slab and diffs every cell outside the
   destination after each instruction, so a write that escapes its
   partition (or a fault-injected bit flip in a transient value) is caught
   at the next step.

   The module is deliberately executor-agnostic — it is driven by
   [Executor] through [begin_run]/[before_instr]/[after_instr] but holds
   only plain arrays, so the analysis library does not depend on the
   compiler. *)

module Report = Echo_diag.Report

exception Sanitize_failed of Report.t

type mode = Off | Cells | Full

let mode_name = function Off -> "off" | Cells -> "cells" | Full -> "full"
let is_on = function Off -> false | Cells | Full -> true

(* Strict parsing: a misspelt setting must not silently pick a default.
   [source] names the flag or variable for the error message. *)
let mode_of_string ~source s =
  match String.lowercase_ascii (String.trim s) with
  | "0" | "off" | "false" | "no" -> Off
  | "1" | "on" | "true" | "yes" | "cells" -> Cells
  | "2" | "full" -> Full
  | _ ->
    invalid_arg
      (Printf.sprintf
         "%s=%S: expected 0|off, 1|on|cells (shadow-cell checks) or 2|full \
          (plus out-of-partition write detection)"
         source s)

let env_mode () =
  match Sys.getenv_opt "ECHO_SANITIZE" with
  | None | Some "" -> Off
  | Some s -> mode_of_string ~source:"ECHO_SANITIZE" s

(* What one schedule slot does, from the executor's point of view. *)
type slot_info = {
  si_name : string;  (** node description for diagnostics *)
  si_dst : (int * int) option;
      (** (first slab cell, numel) written; [None] = no-op *)
  si_const : bool;
      (** sole-tenant constant materialised at compile time: its cells
          are pre-stamped and survive across runs *)
  si_reads : (int * int * int) array;
      (** (producer slot, first slab cell, numel) per tracked input *)
  si_expire : int;
      (** the plan's last read step for the value this slot produces;
          [max_int] = live to the end of the run *)
}

(* The generation stamped on compile-time constants: valid in every run. *)
let gen_const = max_int

(* One tag per slab cell, so a range reused while part of an older value
   in it is still live is caught cell by cell, whatever the two ranges'
   alignment. *)
type t = {
  mode : mode;
  slots : slot_info array;
  storage : float array;  (* the slab, held by reference *)
  writer : int array;  (* -1 = never written *)
  gen : int array;
  snapshot : float array;  (* [Full] only; [||] otherwise *)
  mutable cur_gen : int;
  report : Report.t;
  seen : (string, unit) Hashtbl.t;  (* finding dedup *)
}

let report t = t.report
let mode t = t.mode

let finding t ~check ~nodes key fmt =
  if Hashtbl.mem t.seen key then
    Printf.ikfprintf (fun _ -> ()) () fmt
  else begin
    Hashtbl.replace t.seen key ();
    Report.errorf t.report ~check ~stage:"runtime" ~nodes fmt
  end

(* Tag cells [base + lo, base + hi) of each range as written by [slot]
   with generation [gen]. *)
let stamp t ~slot ~gen ~base ranges =
  let n = Array.length t.writer in
  List.iter
    (fun (lo, hi) ->
      let lo = max 0 (base + lo) and hi = min n (base + hi) in
      for i = lo to hi - 1 do
        t.writer.(i) <- slot;
        t.gen.(i) <- gen
      done)
    ranges

let create mode ~slots ~slab =
  let n = Array.length slab in
  let t =
    {
      mode;
      slots;
      storage = slab;
      writer = Array.make n (-1);
      gen = Array.make n 0;
      snapshot = (if mode = Full then Array.copy slab else [||]);
      cur_gen = 0;
      report = Report.create ();
      seen = Hashtbl.create 64;
    }
  in
  (* Compile-time constants were written once, before any run: stamp them
     now with the cross-run generation so reading them never trips the
     staleness checks. *)
  Array.iteri
    (fun slot info ->
      match info.si_dst with
      | Some (base, numel) when info.si_const ->
        stamp t ~slot ~gen:gen_const ~base [ (0, numel) ]
      | Some _ | None -> ())
    slots;
  t

let begin_run t =
  t.cur_gen <- t.cur_gen + 1;
  (* Values move between runs (feeds, the optimizer), so [Full] mode
     re-baselines the snapshot. *)
  if t.mode = Full then
    Array.blit t.storage 0 t.snapshot 0 (Array.length t.storage)

(* Check every tracked read of [slot]: the cells must carry the expected
   producer's stamp from the current run, and the producer's planned
   lifetime must reach this step. *)
let before_instr t slot =
  let info = t.slots.(slot) in
  Array.iter
    (fun (producer, base, numel) ->
      let pinfo = t.slots.(producer) in
      if slot > pinfo.si_expire then
        finding t ~check:"sanitize-expired" ~nodes:[]
          (Printf.sprintf "expired:%d:%d" slot producer)
          "%s (step %d) reads %s, whose range the plan expired at step %d: \
           stale read past the planned lifetime"
          info.si_name slot pinfo.si_name pinfo.si_expire;
      let cells = Array.length t.writer in
      if base < 0 || base + numel > cells then
        finding t ~check:"sanitize-oob" ~nodes:[]
          (Printf.sprintf "oob:%d:%d" slot producer)
          "%s (step %d) reads cells [%d, %d) of the slab for %s, which holds \
           only %d: out-of-bounds read"
          info.si_name slot base (base + numel) pinfo.si_name cells
      else begin
        let stop = ref false in
        let i = ref base in
        while (not !stop) && !i < base + numel do
          let w = t.writer.(!i) and g = t.gen.(!i) in
          if w = -1 then begin
            finding t ~check:"sanitize-uninit" ~nodes:[]
              (Printf.sprintf "uninit:%d:%d" slot producer)
              "%s (step %d) reads slab cell %d of %s before anything ever \
               wrote it"
              info.si_name slot !i pinfo.si_name;
            stop := true
          end
          else if w <> producer then begin
            finding t ~check:"sanitize-stale" ~nodes:[]
              (Printf.sprintf "stale:%d:%d:%d" slot producer w)
              "%s (step %d) expects slab cell %d to hold %s (step %d) but it \
               was last written by %s (step %d): the range was reused under \
               a pending read"
              info.si_name slot !i pinfo.si_name producer
              t.slots.(w).si_name w;
            stop := true
          end
          else if g <> t.cur_gen && g <> gen_const then begin
            finding t ~check:"sanitize-gen" ~nodes:[]
              (Printf.sprintf "gen:%d:%d" slot producer)
              "%s (step %d) reads slab cell %d of %s written in a previous \
               run: the producer never wrote it this run"
              info.si_name slot !i pinfo.si_name;
            stop := true
          end
          else incr i
        done
      end)
    info.si_reads

(* Diff every slab cell outside the instruction's destination range
   against the snapshot: any changed cell is a write that escaped its
   partition (or a fault-injected flip). *)
let diff_foreign t slot ~base ~numel =
  let info = t.slots.(slot) in
  let n = Array.length t.storage in
  let i = ref 0 and hit = ref false in
  while (not !hit) && !i < n do
    (* Bit-level compare: NaN must equal itself here. *)
    if
      (!i < base || !i >= base + numel)
      && Int64.bits_of_float t.storage.(!i)
         <> Int64.bits_of_float t.snapshot.(!i)
    then begin
      hit := true;
      finding t ~check:"sanitize-foreign" ~nodes:[]
        (Printf.sprintf "foreign:%d:%d" slot !i)
        "slab cell %d changed while %s (step %d) was writing cells [%d, \
         %d): out-of-partition write"
        !i info.si_name slot base (base + numel);
      (* Re-baseline so one escaped write is reported once, not at every
         subsequent step. *)
      Array.blit t.storage 0 t.snapshot 0 n
    end;
    incr i
  done

let after_instr t ?written slot =
  let info = t.slots.(slot) in
  match info.si_dst with
  | None -> ()
  | Some (base, numel) ->
    if t.mode = Full then begin
      diff_foreign t slot ~base ~numel;
      let lo = max 0 base and hi = min (Array.length t.storage) (base + numel) in
      if hi > lo then Array.blit t.storage lo t.snapshot lo (hi - lo)
    end;
    let ranges = match written with Some r -> r | None -> [ (0, numel) ] in
    stamp t ~slot ~gen:t.cur_gen ~base ranges

let check_exn t = if Report.has_errors t.report then raise (Sanitize_failed t.report)

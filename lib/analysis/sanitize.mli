(** Shadow-memory sanitizer for the compiled executor.

    Tags every cell of the executor's slab with (writing slot, generation)
    and checks, at each instruction, that every read sees the producer the
    graph promised, written in the current run, within its planned
    lifetime — so a range reused while part of it still holds a live
    value is caught, however the two ranges overlap. [Full] mode
    additionally snapshots the slab and diffs every cell outside the
    destination after each instruction, catching writes that escape their
    partition and fault-injected flips in transient values.

    Enabled per-executor via [Executor.compile ?sanitize], defaulting to
    {!env_mode} ([ECHO_SANITIZE]); [echoc --sanitize MODE] sets it from
    the command line. The checks change no kernel, no schedule and no
    buffer contents, so a sanitized run is bit-identical to a plain one
    (enforced by the differential suite). *)

module Report = Echo_diag.Report

exception Sanitize_failed of Report.t
(** Raised by {!check_exn}. Findings use checks ["sanitize-oob"],
    ["sanitize-uninit"], ["sanitize-stale"], ["sanitize-gen"],
    ["sanitize-expired"] and ["sanitize-foreign"], stage ["runtime"]. *)

type mode =
  | Off
  | Cells  (** shadow-cell read checks *)
  | Full  (** [Cells] plus out-of-partition write detection (slow) *)

val mode_name : mode -> string
val is_on : mode -> bool

val mode_of_string : source:string -> string -> mode
(** [0|off|false|no], [1|on|true|yes|cells], [2|full].
    @raise Invalid_argument on anything else, naming [source] and the
    offending value — a typo must not silently pick a default. *)

val env_mode : unit -> mode
(** [ECHO_SANITIZE] via {!mode_of_string}; unset or empty is [Off]. *)

(** {1 Executor protocol}

    The executor describes its schedule once ({!create}) and then drives
    {!begin_run} / {!before_instr} / {!after_instr} around every
    instruction. The module holds only plain arrays so the analysis
    library does not depend on the compiler. *)

type slot_info = {
  si_name : string;  (** node description for diagnostics *)
  si_dst : (int * int) option;
      (** (first slab cell, numel) written; [None] = no-op *)
  si_const : bool;
      (** compile-time constant: pre-stamped, valid across runs *)
  si_reads : (int * int * int) array;
      (** (producer slot, first slab cell, numel) per tracked (slab)
          input *)
  si_expire : int;
      (** plan's last read step for this slot's value; [max_int] = run end *)
}

type t

val create : mode -> slots:slot_info array -> slab:float array -> t
(** [slab] is the executor's storage for every transient value (held by
    reference: [Full] snapshots read through it). *)

val mode : t -> mode
val begin_run : t -> unit

val before_instr : t -> int -> unit
(** Check every tracked read of the given schedule slot. *)

val after_instr : t -> ?written:(int * int) list -> int -> unit
(** Stamp the slot's destination cells ([written] ranges in destination
    element indices, default the whole destination); in [Full] mode first
    diff every other slab cell against the snapshot. *)

val report : t -> Report.t
(** All findings so far (deduplicated per kind and slot pair). *)

val check_exn : t -> unit
(** @raise Sanitize_failed if any finding is an error. *)

(** Graph serialization: a stable, line-oriented text format so compiled
    (and rewritten) training graphs can be saved, diffed and reloaded by
    tools. Round-tripping preserves structure, names, regions and scheduling
    hints — a reloaded graph schedules, plans and evaluates identically
    (node ids are reassigned; everything order-relevant is written in
    schedule order so tie-breaking is stable). *)

exception Parse_error of string
(** Carries the offending line and reason. *)

val to_string : Graph.t -> string

val of_string : string -> Graph.t
(** @raise Parse_error on malformed input. *)

val to_file : Graph.t -> string -> unit
val of_file : string -> Graph.t

(** {1 Shared encoding helpers}

    Used by the checkpoint format in [Echo_runtime]; exposed so every
    on-disk artifact escapes strings and encodes tensors the same way. *)

val escape : string -> string
(** Percent-escape spaces, ['%'] and newlines so a string fits in one
    space-separated token. *)

val unescape : string -> string
(** Inverse of {!escape}. @raise Parse_error on a malformed escape. *)

val tensor_to_string : Echo_tensor.Tensor.t -> string
(** One token, [SHAPE:v0,v1,...], with [%h] hex floats — round-trips are
    bit-exact. *)

val add_tensor :
  ?drain:(Buffer.t -> unit) -> Buffer.t -> Echo_tensor.Tensor.t -> unit
(** {!tensor_to_string} appended to a buffer, without the intermediate
    string or a copy of the data. [drain buf] (default: nothing) is called
    after every 256 elements, so a writer that empties [buf] there streams
    a tensor of any size through a buffer of bounded length. *)

val add_float_hex : Buffer.t -> float -> unit
(** Appends exactly the bytes of [Printf.sprintf "%h" x] (including
    [nan], [-nan], [infinity], [-infinity], [-0x0p+0] and subnormals),
    without allocating. *)

val tensor_of_string : string -> Echo_tensor.Tensor.t
(** @raise Parse_error on malformed input. *)

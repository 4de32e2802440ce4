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

val shape_to_string : Echo_tensor.Shape.t -> string
(** The [SHAPE] part of a tensor token: dimensions joined by ['x'], or
    [scalar]. *)

val float_hex_max : int
(** The longest rendering {!put_float_hex} writes: 24 bytes. *)

val put_float_hex : Bytes.t -> int -> float -> int
(** [put_float_hex b pos x] writes exactly the bytes of
    [Printf.sprintf "%h" x] (including [nan], [-nan], [infinity],
    [-infinity], [-0x0p+0] and subnormals) into [b] at [pos], without
    allocating, and returns the position after them.
    @raise Invalid_argument if fewer than {!float_hex_max} bytes of [b]
    are left at [pos]. *)

val put_tensor : Bytes.t -> int -> flush:(int -> unit) -> Echo_tensor.Tensor.t -> int
(** [put_tensor b pos ~flush t] writes {!tensor_to_string}[ t] into [b] from
    [pos], without allocating per element, and returns the position after
    it. Whenever the next piece would not fit, it calls [flush n], which
    must consume [b]'s first [n] bytes, and continues at 0; a [b] of at
    least 64 bytes holds every piece but an oversized shape. *)

val tensor_of_string : string -> Echo_tensor.Tensor.t
(** @raise Parse_error on malformed input. *)

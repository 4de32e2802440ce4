(** Algebraic simplification and constant folding.

    Rewrites that real framework executors apply before memory planning —
    they remove kernels the autodiff engine emits mechanically:

    - [Scale 1] / [AddScalar 0] / [PowConst 1] are dropped;
    - [Scale 0 x] and [Mul x Zeros] become [Zeros];
    - [Add x Zeros] / [Sub x Zeros] become [x]; [Mul x Ones]-style identities
      via [ConstFill];
    - [Neg (Neg x)] becomes [x]; [Scale a (Scale b x)] becomes [Scale (a*b) x];
    - [Reshape] to the identical shape is dropped; [Transpose2d (Transpose2d x)]
      becomes [x]; [BroadcastAxis ~n:1] is dropped.

    Shapes and values are preserved exactly; region tags survive (a rewrite
    of a backward node stays backward). *)

open Echo_ir

val run : Graph.t -> Graph.t
(** Returns its argument itself ([==]) when no node is rewritten. *)

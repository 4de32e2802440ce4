(** Common-subexpression elimination.

    Two nodes compute the same value when they apply the same (pure)
    operator to the same inputs; CSE rebuilds the graph so every such value
    is computed once. Training graphs produced by symbolic autodiff contain
    many duplicates (e.g. repeated [1 - y^2] factors of tanh gradients and
    repeated slices of shared pre-activations), so CSE both shrinks the
    kernel count and — because fewer nodes means fewer distinct stashed
    buffers — interacts with the Echo pass; the bench ablates the
    combination.

    Region handling is conservative: a forward node never unifies with a
    backward node (that would silently turn a recomputation back into a
    stash). Semantics are preserved exactly: all operators are pure and
    stochastic ones are seeded, so structural equality implies value
    equality. *)

open Echo_ir

val run : Graph.t -> Graph.t
(** Returns its argument itself when no node merges. *)

val count_redundant : Graph.t -> int
(** Number of nodes CSE would remove (statistics / tests). *)

(** Control-flow-graph queries over an IR function.

    A snapshot: compute it once per pass, after any structural mutation it
    must be recomputed. *)

type t

val of_func : Ir.func -> t
val entry : t -> Ir.label

val succs : t -> Ir.label -> Ir.label list
val preds : t -> Ir.label -> Ir.label list

val edges : t -> (Ir.label * Ir.label) list
(** All CFG edges (src, dst), deduplicated, in deterministic order.  A
    [Cbr] with both arms equal contributes one edge. *)

val reachable : t -> Ir.label -> bool

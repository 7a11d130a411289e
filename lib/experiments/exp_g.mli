(** EXP-G — the lower-bound machinery of Section 3, run as measurement.

    Part (i) — Theorem 3.2 pipeline on [Fast]: progress-vector non-zero
    counts grow with [log L], and each significant pair forces [E/6]
    traversals, giving the [Omega(E log L)] cost bound from below; the
    implied bound is compared with the measured solo cost.

    Part (ii) — Theorem 3.1 pipeline on the cost-[E] [Cheap]: the
    eager-agent tournament's Hamiltonian chain has strictly increasing
    execution times with slope [~ (F - 3 phi)/2], giving the [Omega(E L)]
    time bound from below. *)

val table_progress : ?n:int -> ?spaces:int list -> unit -> Rv_util.Table.t
(** Part (i). *)

val table_chain : ?n:int -> ?spaces:int list -> unit -> Rv_util.Table.t
(** Part (ii). *)

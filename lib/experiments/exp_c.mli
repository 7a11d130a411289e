(** EXP-C — Theorem 3.2's shape: at time [O(E log L)], cost grows as
    [Theta(E log L)].

    Measures the worst-case cost of Algorithm [Fast] as [L] grows
    geometrically on a fixed oriented ring, fits a line in [log2 L], and
    reports the slope in units of [E]. *)

val table :
  ?pool:Rv_engine.Pool.t -> ?n:int -> ?spaces:int list -> unit -> Rv_util.Table.t

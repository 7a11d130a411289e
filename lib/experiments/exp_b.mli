(** EXP-B — Theorem 3.1's shape: at cost [E + o(E)], time grows as
    [Theta(E L)].

    Measures the worst-case meeting time of the simultaneous-start [Cheap]
    (cost exactly [E]) as [L] grows on a fixed oriented ring, fits a line
    in [L], and reports the slope in units of [E]. *)

val table :
  ?pool:Rv_engine.Pool.t -> ?n:int -> ?spaces:int list -> unit -> Rv_util.Table.t

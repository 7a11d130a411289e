(** EXP-L — distance sensitivity (the [Theta(D log l)] benchmark of [26],
    paper Section 1.4).

    The paper's algorithms are distance-oblivious: their time is governed
    by [E ~ n] regardless of how close the agents start.  The
    {!Rv_baselines.Dlog} baseline recovers the [D]-sensitive behaviour of
    Dessmark et al. on oriented rings with simultaneous start.  This table
    sweeps the initial ring distance [D] and contrasts the two profiles:
    [Fast] flat in [D], [Dlog] a doubling staircase proportional to [D]. *)

val table : ?n:int -> ?space:int -> unit -> Rv_util.Table.t

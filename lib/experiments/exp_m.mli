(** EXP-M — gathering k agents (the extension of Section 1.4's context,
    built on {!Rv_sim.Gather}'s merge-on-meet semantics).

    All k agents run the simultaneous-start [Cheap] schedule.  The smallest
    label explores during rounds [((l_min - 1) E, l_min E]] while every
    larger label is still waiting, so it sweeps up the whole crew in one
    exploration: gathering completes by round [l_min * E] at cost [O(k E)]
    (each collected agent rides along with the leader).  The table measures
    the scaling in [k]. *)

val table : ?n:int -> ?ks:int list -> unit -> Rv_util.Table.t

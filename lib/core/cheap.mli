(** Algorithm [Cheap] (paper, Algorithm 1): cost-optimal rendezvous.

    General version, for arbitrary starting times:
    {v
      1: Execute EXPLORE once
      2: Wait 2*l*E rounds
      3: Execute EXPLORE once
    v}
    Proposition 2.1: rendezvous at cost at most [3E] and in time at most
    [(2l + 3)E <= (2L + 1)E], where [l] is the smaller label.

    Simultaneous-start version: wait [(l - 1) * E] rounds, then explore
    once — cost exactly [E] (only the smaller-labelled agent moves before
    the meeting), time at most [l * E <= (L - 1) * E]. *)

val schedule : label:Label.t -> explorer:Rv_explore.Explorer.t -> Schedule.t
(** The general (delay-tolerant) schedule for this label. *)

val schedule_simultaneous : label:Label.t -> explorer:Rv_explore.Explorer.t -> Schedule.t
(** The simultaneous-start schedule (correct only when both agents start in
    the same round). *)

(** Algorithm [FastWithRelabeling(w)] (paper, Section 2): the interior of
    the time/cost tradeoff curve.

    The agent's label is replaced by a fixed-length, fixed-weight string
    (see {!Relabel}) and Algorithm [Fast] is executed with the new label.
    Proposition 2.3: time at most [(4t + 5) E] and cost at most
    [2 w(L) E]; Corollary 2.1: for constant [w], cost [O(E)] and time
    [O(L^(1/w) E)] — simultaneously beating [Fast]'s cost and [Cheap]'s
    time, the paper's separation result.

    Two variants, as for [Fast]:
    - {!schedule}: delay-tolerant — the relabeled string goes through the
      doubling-plus-leading-one pattern, so each agent explores at most
      [2w + 1] times (cost per agent [(2w + 1) E]; the paper's [2wE]
      accounting matches the simultaneous variant — see DESIGN.md).
    - {!schedule_simultaneous}: the pattern is the relabeled string itself;
      each agent explores exactly [w] times. *)

val schedule :
  scheme:Relabel.scheme -> label:Label.t -> explorer:Rv_explore.Explorer.t -> Schedule.t

val schedule_simultaneous :
  scheme:Relabel.scheme -> label:Label.t -> explorer:Rv_explore.Explorer.t -> Schedule.t

(** Algorithm [Fast] (paper, Algorithm 2): time-optimal rendezvous.

    With [S = M(l)] the transformed label (see {!Label.transform}) of
    length [m], the agent executes the activity pattern
    [T = (1, S1, S1, S2, S2, ..., Sm, Sm)] over [2m + 1] blocks of [E]
    rounds each: in block [i] it runs [EXPLORE] if [T(i) = 1] and waits [E]
    rounds otherwise.

    Proposition 2.2: time at most [(4 log(L-1) + 9) E] and cost at most
    twice that — both [O(E log L)].

    Simultaneous-start version: the pattern is [S] itself (the prefix-free
    transform still guarantees an aligned difference; no doubling or
    leading block is needed when clocks agree). *)

val pattern : label:Label.t -> bool list
(** The general activity pattern [T] for this label. *)

val pattern_simultaneous : label:Label.t -> bool list
(** The simultaneous-start pattern [M(l)]. *)

val schedule : label:Label.t -> explorer:Rv_explore.Explorer.t -> Schedule.t

val schedule_simultaneous : label:Label.t -> explorer:Rv_explore.Explorer.t -> Schedule.t

val pattern_of_bits : Rv_util.Bitseq.t -> bool list
(** The doubling-plus-leading-one construction [T] applied to an arbitrary
    bit string (used by [FastWithRelabeling], which feeds fixed-length
    relabeled strings instead of [M(l)]). *)

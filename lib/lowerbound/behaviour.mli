(** Behaviour vectors (paper, Section 3).

    On an oriented ring, a deterministic algorithm's solo execution is fully
    described by a sequence over [{-1, 0, 1}]: per round, move clockwise
    (port 0, [+1]), stay idle ([0]), or move counterclockwise (port 1,
    [-1]).  The vector is independent of the starting node because an agent
    cannot sense its position on the ring.

    Vectors here are extracted by running the agent program solo on an
    oriented ring and recording its actions; all of Section 3's machinery
    ([Trim], displacement, tournaments, aggregate and progress vectors)
    operates on these arrays. *)

type t = int array
(** Entries in [{-1, 0, 1}]. *)

val check : t -> unit
(** Raises [Invalid_argument] on entries outside [{-1, 0, 1}]. *)

val of_schedule : n:int -> Rv_core.Schedule.t -> t
(** Run the schedule solo on the oriented ring of size [n] for its full
    duration (starting at node 0 — the result is start-independent) and
    record its moves. *)

val prefix_sums : t -> int array
(** [prefix_sums v].(i) is the displacement after round [i+1]; length =
    length of [v]. *)

val displacement : t -> upto:int -> int
(** Sum of the first [upto] entries ([disp] in the paper). *)

val seg_sides : t -> int * int
(** The paper's literal segment decomposition: [(|seg1|, |seg-1|)] — the
    number of distinct edges the agent explores while on its clockwise side
    (prefix displacement [>= 0]) and counterclockwise side (prefix
    displacement [<= 0]) of the start.  On a ring these coincide with
    [(forward, back)] — the explored clockwise segment reaches exactly
    [forward] edges and the counterclockwise one [back] — but the function
    computes them from the definition, and the test-suite checks the
    coincidence ([|seg| <= |seg1| + |seg-1|], as used in Fact 3.2/3.3). *)

val forward : t -> int
(** Maximum clockwise displacement over all prefixes ([forward(x)]; [>= 0]). *)

val back : t -> int
(** Maximum counterclockwise displacement over all prefixes, as a
    non-negative count ([back(x)]). *)

val clockwise_heavy : t -> bool
(** [back <= forward] — the "wlog" side used throughout Section 3. *)

val mirror : t -> t
(** Negate every entry (swap clockwise and counterclockwise). *)

val weight : t -> int
(** Number of non-zero entries = cost of the solo execution. *)

(** Rendezvous algorithms as schedules of exploration and waiting.

    All three of the paper's algorithms have the same skeleton: time is cut
    into segments, and in each segment the agent either runs [EXPLORE] once
    (a block of exactly [E] rounds) or waits a prescribed number of rounds.
    A {!t} is that skeleton made explicit.  Each [Explore] step carries its
    own explorer so that the unknown-[E] wrapper (paper, Conclusion) can
    chain iterations with growing bounds [E_i] within a single schedule. *)

type step =
  | Explore of Rv_explore.Explorer.t  (** one execution: [bound] rounds *)
  | Pause of int  (** wait this many rounds ([>= 0]) *)

type t = step list

val duration : t -> int
(** Total rounds of the schedule. *)

val traversal_budget : t -> int
(** Upper bound on edge traversals: the sum of the [Explore] bounds. *)

val explorations : t -> int
(** Number of [Explore] steps. *)

val to_instance : t -> Rv_explore.Explorer.instance
(** A fresh stateful stepper replaying the schedule round by round (fresh
    explorer instance per [Explore] step); waits forever once the schedule
    is exhausted. *)

val repeat : int -> t -> t
(** [repeat k t] is [t] concatenated [k >= 1] times.  Finite algorithms can
    miss entirely in the parachute placement model when the later agent
    wakes after the earlier agent's schedule has ended (see EXP-I);
    repetition is the standard remedy.  Raises [Invalid_argument] if
    [k < 1]. *)

val blocks : explorer:Rv_explore.Explorer.t -> bool list -> t
(** [blocks ~explorer pattern] turns an activity pattern into one step per
    entry: [true] = [Explore explorer], [false] = [Pause explorer.bound].
    This is the "time segment [(i-1)E + 1 .. iE]" scheme of Algorithm
    [Fast]. *)

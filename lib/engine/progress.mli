(** Shared progress counters for a running sweep.

    All counters are atomics, safe to update from any worker domain; the
    numbers are monitoring-grade (exact at quiescence, racy snapshots
    mid-flight) and never feed back into results, so they cannot break
    the engine's determinism guarantee. *)

type t

val create : ?total:int -> unit -> t
(** [create ~total ()] starts the elapsed-time clock.  [total] (default
    0, meaning unknown) is the expected number of tasks, used only for
    rendering. *)

val tick : t -> unit
(** One task finished. *)

val observe : t -> time:int -> cost:int -> unit
(** Fold one simulated configuration's outcome into the worst-so-far
    counters (monotone atomic max). *)

val completed : t -> int
val worst_time : t -> int
val worst_cost : t -> int

val elapsed : t -> float
(** Wall-clock seconds since {!create}. *)

val throughput : t -> float
(** Completed tasks per second of elapsed time ([0.] before the clock has
    advanced).  Derived from the atomic counters; racy mid-flight like
    everything else here. *)

val eta : t -> float option
(** Estimated seconds to completion, extrapolating {!throughput} over the
    remaining tasks.  [None] when [total] is unknown, nothing has
    completed yet, or the sweep already finished. *)

val report : t -> string
(** One-line human summary, e.g.
    ["6/8 tasks, worst time 736, worst cost 253, 0.42s elapsed, 14.3 tasks/s, ETA 0.1s"]
    (throughput and ETA appear once derivable). *)

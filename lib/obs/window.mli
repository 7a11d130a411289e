(** Sliding-window latency/size statistics: a ring of one-second slots,
    each a log2-bucket histogram (same bucket geometry as {!Histogram}),
    merged on demand over a trailing horizon.

    Unlike {!Histogram}, windows are {b always on}: {!observe} performs a
    handful of atomic operations unconditionally (no {!Obs.enabled}
    check) so a server can keep "p99 over the last minute" live without
    opting into tracing.  The caller supplies wall time as an integer
    second ([now_s]) — both so hot paths reuse a timestamp they already
    took and so tests can drive synthetic clocks deterministically.

    A slot is recycled when its second comes around again ([ring size >
    max horizon + slack]).  The recycle is a compare-and-set on the
    slot's epoch followed by a clear; an observation racing the clear at
    a second boundary can be lost or misplaced by one slot.  That bounds
    the error to a few samples per rotation — acceptable for monitoring
    statistics, and the price of staying lock-free on the observe path. *)

type t

type stats = {
  w_count : int;  (** observations inside the horizon *)
  w_sum : int;
  w_max : int;
  w_p50 : int;
  w_p90 : int;
  w_p99 : int;
      (** [w_p50]/[w_p90]/[w_p99]: the log2-bucket upper bound of the
          nearest-rank sample — the one [Rv_util.Stats.percentile] picks
          from the horizon's values — clamped to [w_max]; [0] when that
          sample is [<= 0] or the horizon is empty.  This is the tree's
          only histogram percentile estimator. *)
}

val empty_stats : stats

val create : ?slots:int -> unit -> t
(** [create ()] makes a window whose ring covers the largest supported
    horizon (300 s) plus slack; [?slots] overrides the ring size (floored
    to a safe minimum). *)

val observe : t -> now_s:int -> int -> unit
(** Record value [v] in the slot for second [now_s].  Unconditional. *)

val stats : t -> now_s:int -> horizon_s:int -> stats
(** Merge the slots covering [(now_s - horizon_s, now_s]] and summarize.
    [horizon_s] is clamped to the ring capacity. *)

val stats_many : t list -> now_s:int -> horizon_s:int -> stats
(** Merged statistics over several windows, as if every observation had
    gone to a single window — lets a server keep only fine-grained
    windows hot (one {!observe} per event) and derive the aggregate at
    read time.  [stats t] = [stats_many [t]]. *)

(** Log-bucketed histograms for time/cost/latency distributions.

    Buckets are powers of two: bucket 0 collects values [<= 0], bucket
    [i >= 1] collects the range [2^(i-1) .. 2^i - 1].  Observation is an
    atomic increment on the bucket plus atomic sum/count/max updates, so
    worker domains can observe concurrently; like {!Counter}, histograms
    live in a process-global registry keyed by name and {!observe} is a
    no-op when instrumentation is disabled.  Percentile estimates over
    this bucket layout are {!Window}'s. *)

type t

val nbuckets : int
(** Number of log2 buckets (shared with {!Window}). *)

val bucket_of : int -> int
(** [bucket_of v] is the bucket index of [v]: [0] for [v <= 0], else
    [1 + floor (log2 v)] capped at [nbuckets - 1]. *)

val atomic_max : int Atomic.t -> int -> unit
(** [atomic_max cell v] raises [cell] to [v] if [v] is larger: a
    compare-and-set retry loop, lock-free and safe across domains.  The
    max of every histogram, {!Window} slot and sweep progress cell. *)

val find : string -> t
val observe_t : t -> int -> unit
(** Unconditional (no enabled check — the caller hoisted it). *)

val observe : string -> int -> unit
(** No-op when disabled, else [observe_t (find name) v]. *)

val name : t -> string
val count : t -> int
val sum : t -> int
val mean : t -> float
val max_value : t -> int
(** Largest observed value ([0] when empty). *)

val bucket_bounds : int -> int * int
(** [bucket_bounds i] is the inclusive value range of bucket [i]
    (bucket 0 is [(min_int, 0)]). *)

val buckets : t -> (int * int * int) list
(** Non-empty buckets as [(lo, hi, count)], ascending. *)

val all : unit -> t list
(** Every registered histogram, sorted by name. *)

val reset : unit -> unit

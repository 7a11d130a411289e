(** Deterministic, splittable pseudo-random number generator.

    All randomness in the repository flows through this module so that graph
    generation, workload sampling and property tests are exactly reproducible
    from a fixed integer seed.  The generator is a SplitMix64 core: each state
    is a single 64-bit counter advanced by a fixed odd increment, hashed
    through a finalizer.  Splitting derives an independent stream, which lets
    builders hand sub-generators to their components without coordinating. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] returns a fresh generator determined by [seed]. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. Raises
    [Invalid_argument] if [hi < lo]. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform random permutation of [0..n-1]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Raises [Invalid_argument] on an
    empty array. *)

val sample_distinct : t -> int -> int -> int list
(** [sample_distinct t k n] draws [k] distinct values uniformly from
    [0..n-1], in random order. Raises [Invalid_argument] if [k > n] or
    [k < 0]. *)

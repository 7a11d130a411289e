(** Summary statistics over integer measurement samples (rounds, traversals).

    Used by the adversary sweeps and the experiment harness to report
    worst-case / average behaviour of rendezvous executions. *)

type summary = {
  count : int;
  min : int;
  max : int;
  mean : float;
  stddev : float;
  median : float;  (** [percentile sorted 0.5] *)
  p90 : float;  (** [percentile sorted 0.9] *)
}

val percentile : 'a array -> float -> 'a
(** [percentile sorted p] is the nearest-rank [p]-th percentile of an
    ascending array of [n] samples: its [ceil (p *. n)]-th smallest
    element, and the smallest for [p = 0.] (ranks are clamped to
    [1 .. n]).  Always a sample, never an interpolation.  This is the
    tree's one exact-sample percentile: {!summarize}, [rv loadgen]'s
    client latencies and the benches use it, and [Rv_obs.Window]
    reports the log2-bucket bound of this same sample.  Raises
    [Invalid_argument] on an empty array. *)

val summarize : int list -> summary
(** Raises [Invalid_argument] on the empty list. *)

val argmax : ('a -> int) -> 'a list -> 'a * int
(** [argmax f xs] returns the element maximizing [f] together with the
    maximum value.  Raises [Invalid_argument] on the empty list; ties break
    toward the earliest element. *)

val argmin : ('a -> int) -> 'a list -> 'a * int
(** Dual of {!argmax}. *)

val mean : int list -> float
val linear_fit : (float * float) list -> float * float
(** Least-squares line [y = a + b x] over the points; returns [(a, b)].
    Raises [Invalid_argument] with fewer than two points or a degenerate
    x-range. *)

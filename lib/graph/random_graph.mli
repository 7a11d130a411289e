(** Seeded random connected graphs: a uniform random recursive spanning tree
    plus a requested number of extra non-tree edges.  Used as the arbitrary
    "computer network" workloads and as the verification corpus for the UXS
    substrate. *)

val connected : Rv_util.Rng.t -> n:int -> extra_edges:int -> Port_graph.t
(** [connected rng ~n ~extra_edges] has [n - 1 + k] edges where
    [k <= extra_edges] is capped by the number of available node pairs.
    Raises [Invalid_argument] if [n < 2] or [extra_edges < 0]. *)

val regular_even : Rv_util.Rng.t -> n:int -> half_degree:int -> Port_graph.t
(** A connected [2k]-regular graph ([k = half_degree >= 1]): a circulant
    skeleton (node [i] joined to [i +- j] for [j = 1..k]) under a random
    node permutation, with random port labels.  Every degree is even, so
    the graph is Eulerian.  Requires [n >= 2 * half_degree + 1]. *)

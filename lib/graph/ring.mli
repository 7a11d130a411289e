(** Rings — the graph class on which the paper's lower bounds live.

    An {e oriented} ring (Section 3) carries port labels 0 and 1 at the two
    endpoints of every edge, consistently around the cycle: at each node,
    taking port 0 means going clockwise and taking port 1 counterclockwise.
    For an oriented ring of size [n] the optimal exploration bound is
    [E = n - 1] (walk clockwise). *)

val oriented : int -> Port_graph.t
(** [oriented n] is the oriented ring on [n >= 3] nodes; node [i]'s port 0
    leads to node [(i+1) mod n] (entering through its port 1).  Raises
    [Invalid_argument] if [n < 3]. *)

val scrambled : Rv_util.Rng.t -> int -> Port_graph.t
(** [scrambled rng n] is a ring with uniformly random (hence generally
    inconsistent) port assignments — the unoriented case. *)

val clockwise_cycle : int -> int list
(** [clockwise_cycle n] is the Hamiltonian cycle [0; 1; ...; n-1] of the
    oriented ring (certificate for {!Hamilton.check}). *)

(** Anonymous, port-labeled, undirected connected graphs — the network model
    of the paper (Section 1.2).

    Nodes are integers [0..n-1], but this numbering is an artifact of the
    representation used by the simulator and the builders: agents never see
    it.  At each node [v] of degree [d], the incident edges carry distinct
    local port numbers [0..d-1]; port numbering is local, so the two
    endpoints of an edge may label it with unrelated ports.

    The representation stores, for node [u] and port [p], the pair
    [(v, q)]: following port [p] from [u] leads to [v], entering [v] through
    its port [q].  The symmetry invariant [follow v q = (u, p)] is enforced
    by {!check}. *)

type t

type endpoint = { node : int; port : int }

val create : n:int -> (int * int) array array -> t
(** [create ~n adj] builds a graph from the raw adjacency structure:
    [adj.(u).(p) = (v, q)] as described above.  Validates with {!check} and
    raises [Invalid_argument] on a malformed structure (asymmetric ports,
    out-of-range nodes, self-loops, parallel edges, or a disconnected
    graph). *)

val n : t -> int
(** Number of nodes. *)

val num_edges : t -> int
(** Number of undirected edges. *)

val degree : t -> int -> int
(** [degree g v] is the number of ports at [v]. *)

val follow : t -> int -> int -> int * int
(** [follow g u p] is [(v, q)]: the node reached from [u] via port [p] and
    the entry port at that node.  Raises [Invalid_argument] if [p] is not a
    valid port of [u]. *)

val neighbor : t -> int -> int -> int
(** [neighbor g u p] is [fst (follow g u p)]. *)

val edges : t -> (endpoint * endpoint) list
(** Each undirected edge once, as its two port-labeled endpoints, with the
    smaller [(node, port)] endpoint first. *)

val check : t -> (unit, string) result
(** Re-validate all invariants (symmetry, distinct ports, simplicity,
    connectivity).  [create] already guarantees them; exposed for tests and
    for hand-built structures. *)

val is_connected : t -> bool

val equal_structure : t -> t -> bool
(** Structural equality of the port-labeled representation (same node
    numbering; this is representation equality, not isomorphism). *)

val relabel_ports : Rv_util.Rng.t -> t -> t
(** Randomly permute the port numbers at every node (preserving the
    underlying simple graph).  Used by tests to confirm that algorithms only
    depend on the port-labeled structure through legal observations. *)

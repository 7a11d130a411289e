(** Walks over a port-labeled map, described as port sequences.

    A walk is the list of exit ports taken from a known start node — exactly
    the paper's notion of "a sequence of ports" that an agent with a map can
    precompute (Section 1.2).  Exploration procedures in [rv_explore] replay
    these walks online. *)

type t = int list
(** Exit ports, in order. *)

val apply : Port_graph.t -> start:int -> t -> int list
(** [apply g ~start ports] is the node sequence visited, including [start]
    first (length = 1 + length of the walk).  Raises [Invalid_argument] when
    a port is not available at the current node. *)

val final : Port_graph.t -> start:int -> t -> int
(** Last node of {!apply}. *)

val covers_all : Port_graph.t -> start:int -> t -> bool
(** Does the walk visit every node of [g]? *)

val dfs : Port_graph.t -> start:int -> t
(** Depth-first traversal from [start], taking unexplored ports in
    increasing order, backtracking through the entry port; returns to
    [start].  Length is exactly [2 * (n - 1)] (each spanning-tree edge is
    crossed twice; non-tree edges are recognized on the map and never
    crossed), giving the paper's DFS exploration bound [E = 2n - 2]. *)

val dfs_no_return : Port_graph.t -> start:int -> t
(** {!dfs} truncated after the last new node is discovered (the agent does
    not walk back to [start] from the final branch); length
    [<= 2n - 3] for [n >= 2].  The endpoint is {!final}. *)

val port_to : Port_graph.t -> int -> int -> int
(** [port_to g u v] is the smallest port at [u] leading to [v].  Raises
    [Invalid_argument] if [u] and [v] are not adjacent. *)

val from_cycle : Port_graph.t -> cycle:int list -> start:int -> t
(** Given a Hamiltonian cycle certificate (a list of the [n] nodes in cycle
    order), the walk of [n - 1] ports that follows the cycle from [start]
    (which must lie on the cycle, i.e. be a node of the graph).  Raises
    [Invalid_argument] if the certificate is invalid or some cycle edge is
    missing. *)

(** DFS exploration with a port-labeled map and a marked starting position
    (paper, Section 1.2: "Depth-First-Search can be performed in time at
    most 2n - 3").

    The agent holds the map and tracks its position across executions, so
    each execution of [EXPLORE] replays a DFS walk from wherever the
    previous one ended.  Two variants:

    - {!returning}: the walk backtracks all the way, ending where it
      started; exactly [2n - 2] moves, bound [E = 2n - 2].
    - {!non_returning}: the walk stops at the last newly discovered node
      ([<= 2n - 3] moves, the paper's sharper bound [E = 2n - 3]); the
      tracked position advances to the walk's endpoint. *)

val returning : Rv_graph.Port_graph.t -> start:int -> Explorer.t
(** Build the family once per graph, [returning g], then apply it per
    start.  Nothing is checked.  Each explorer computes its walk
    ({!Rv_graph.Walk.dfs}) on its first execution's first step and
    replays that one port array in every execution, since the walk ends
    where it began. *)

val non_returning : Rv_graph.Port_graph.t -> start:int -> Explorer.t
(** As {!returning}, with {!Rv_graph.Walk.dfs_no_return}.  The position
    moves, so an execution recomputes the walk whenever it starts from a
    node other than the previous execution's. *)

val bound_returning : n:int -> int
(** [2n - 2]. *)

val bound_non_returning : n:int -> int
(** [max 1 (2n - 3)]. *)

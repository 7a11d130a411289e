(** Exploration along an Eulerian circuit (paper, Section 1.2: "if the
    graph has an Eulerian cycle, then E can be taken as e - 1").

    Requires an Eulerian map with marked start.  {!closed} follows the full
    circuit ([e] moves, returning to the start — bound [E = e]);
    {!truncated} stops once every node has been seen ([<= e - 1] moves, the
    paper's bound), advancing the tracked position. *)

val closed : Rv_graph.Port_graph.t -> start:int -> Explorer.t
(** Build the family once per graph, [closed g], then apply it per start.
    The partial application checks [Rv_graph.Euler.is_eulerian] and raises
    [Invalid_argument] if the graph is not Eulerian.  Each explorer
    computes its circuit ({!Rv_graph.Euler.circuit}) on its first
    execution's first step and replays it in every execution, since the
    circuit is closed. *)

val truncated : Rv_graph.Port_graph.t -> start:int -> Explorer.t
(** As {!closed}, with {!Rv_graph.Euler.circuit_no_return}.  The position
    moves, so an execution recomputes the walk whenever it starts from a
    node other than the previous execution's. *)

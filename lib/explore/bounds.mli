(** Verification and measurement of the [EXPLORE] contract.

    Every explorer declares a bound [E]; these helpers replay executions in
    a sandbox (a solo walker, no rendezvous involved) to check that, from
    every starting node, all nodes are visited within [E] rounds — including
    across {e consecutive} executions for explorers that track a moving
    position, each of which must also act as a fresh explorer started
    where it began.  [measure]/[worst] give the exact per-graph exploration time,
    the tightest [E] an agent with full knowledge could declare. *)

val rounds_to_cover :
  Rv_graph.Port_graph.t -> start:int -> Explorer.t -> (int, string) result
(** One execution from [start]; [Ok r] is the first round (1-based; 0 for a
    single-node graph) at which every node has been visited, [Error _] if
    coverage is incomplete after [bound] rounds or the explorer emitted an
    invalid port. *)

val verify :
  Rv_graph.Port_graph.t -> make:(start:int -> Explorer.t) -> (unit, string) result
(** {!rounds_to_cover} from every start, with a fresh explorer each time. *)

val verify_repeated :
  Rv_graph.Port_graph.t ->
  make:(start:int -> Explorer.t) ->
  executions:int ->
  (unit, string) result
(** From every start, run [executions] consecutive executions of one
    explorer value (exercising tracked-position state) and require each
    execution to cover the graph, and to take the ports of a fresh first
    execution of [make ~start:v] from the node [v] where it began, under
    the same first observation — the part of {!Explorer}'s contract that
    lets a symmetry-reduced sweep certify first executions only.  The
    executions run back to back, so a later one's first step sees the
    entry port of the previous one's last move, and its fresh
    counterpart is stepped under that entry port too. *)

val worst : Rv_graph.Port_graph.t -> make:(start:int -> Explorer.t) -> (int, string) result
(** Maximum of {!rounds_to_cover} over all starts — the exact exploration
    time of the procedure on this graph. *)

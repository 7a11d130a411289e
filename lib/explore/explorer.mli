(** Exploration procedures as online automata.

    The paper (Section 1.2) assumes both agents know an upper bound [E] on
    exploration time together with a procedure [EXPLORE] that, started at
    {e any} node, visits all nodes of the graph within [E] rounds; if it
    finishes early it waits until exactly [E] rounds have elapsed.  All
    three rendezvous algorithms treat [EXPLORE] as a black box with this
    contract.

    Because the network is anonymous, a procedure can only be an automaton
    over what an agent can legally observe: on waking it sees the degree of
    its node; after moving through a port it learns the degree of the new
    node and the entry port.  An {!instance} is a stateful step function
    called once per round with the current observation; a {!t} bundles the
    declared bound [E] with a factory producing fresh instances — one per
    execution of [EXPLORE].

    The contract, verified for every implementation by {!Bounds}:
    an instance is stepped exactly [bound] times; by the end, every node of
    the graph has been visited at some round; actions with out-of-range
    ports are errors.

    An agent gets its explorer from a {e family} [make : start:int -> t]
    (what {!Bounds} and the sweeps take), and the contract covers the
    family too: an execution's actions depend only on the node where it
    begins and on what it observes, never on the start the family was
    built for, nor on earlier executions except through that node.  So
    the execution that begins at [v] takes the ports that the first
    execution of [make ~start:v] takes from [v] under the same first
    observation.  A factory may keep state across executions (the
    map-based procedures track the agent's position, and cache the last
    walk they computed) only as a function of that node.
    {!Bounds.verify_repeated} checks this, and a symmetry-reduced sweep
    relies on it: it certifies first executions only
    ([Rv_experiments.Workload.certify]).

    Map-based procedures ({!Ham_walk}, {!Map_dfs}, {!Euler_walk}) compile
    the map into port arrays once per graph and replay a slice of one per
    execution through {!of_slices}; the position they track stays inside
    the explorer value.  No round after an execution's first allocates. *)

type observation = {
  degree : int;  (** degree of the current node *)
  entry : int option;
      (** port through which the agent entered on the previous round's move;
          [None] if the previous round was a wait or the agent has not
          moved yet.  An execution's first step sees [None] after a pause
          or at the start of a schedule, but when it directly follows
          another execution it sees the port through which that
          execution's last-round move entered (the simulator and
          [Rv_sim.Traj] both pass it on) *)
}

type action = Wait | Move of int  (** [Move p] exits through port [p] *)

type instance = observation -> action
(** Stateful step function; call once per round. *)

type t = private {
  name : string;
  bound : int;  (** the declared [E]: rounds per execution *)
  fresh : unit -> instance;
}

val make : name:string -> bound:int -> fresh:(unit -> instance) -> t
(** Raises [Invalid_argument] if [bound < 0]. *)

val move : int -> action
(** [move p] is [Move p].  Ports below 2048 share one preallocated value
    each, so an explorer that answers through [move] allocates nothing per
    round. *)

type slice = { ports : int array; first : int; len : int }
(** The walk [ports.(first)], ..., [ports.(first + len - 1)]. *)

val of_slices : name:string -> bound:int -> (unit -> slice) -> t
(** The replay primitive.  Each execution fetches its slice on its first
    step (so the fetch can read and advance a tracked position), moves
    through the slice's ports, then waits out the remaining rounds.  Only
    the first step allocates.  Raises [Invalid_argument] at run time if a
    slice is longer than [bound]. *)

val of_walk_factory : name:string -> bound:int -> (unit -> int list) -> t
(** {!of_slices} over the whole of each walk the factory returns; the
    factory is called on the first step of each execution. *)

val of_map_walks :
  name:string ->
  bound:int ->
  Rv_graph.Port_graph.t ->
  (start:int -> int list) ->
  start:int ->
  t
(** [of_map_walks ~name ~bound g walk ~start] tracks the agent's position
    on the map of [g], beginning at [start].  Each execution replays
    [walk ~start:p] from the tracked position [p] and moves the position
    to that walk's last node.  The explorer keeps its last walk and
    reuses it while the position repeats, so a walk that returns to its
    start is computed once per explorer, not once per execution.  Walks
    are never shared between explorers. *)

val idle : bound:int -> t
(** Waits for [bound] rounds.  Not a valid exploration (covers nothing);
    used as a building block in tests and adversarial constructions. *)

val rename : string -> t -> t

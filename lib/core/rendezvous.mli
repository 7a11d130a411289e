(** Facade: pick an algorithm, two agents, a graph and an exploration
    procedure; get a simulated rendezvous with its time and cost.

    This is the entry point a downstream user should start from (see
    [examples/quickstart.ml]); the individual algorithm modules expose the
    schedules for finer control. *)

type algorithm =
  | Cheap  (** Algorithm 1; arbitrary delays *)
  | Cheap_simultaneous  (** wait [(l-1)E] then explore; simultaneous start only *)
  | Fast  (** Algorithm 2; arbitrary delays *)
  | Fast_simultaneous  (** pattern [M(l)]; simultaneous start only *)
  | Fwr of int  (** [FastWithRelabeling w]; arbitrary delays *)
  | Fwr_simultaneous of int  (** simultaneous start only *)

val name : algorithm -> string

val delay_tolerant : algorithm -> bool
(** Whether the variant is proven for arbitrary starting times. *)

type party = { label : Label.t; start : int; delay : int }

val schedule :
  algorithm -> space:int -> label:Label.t -> explorer:Rv_explore.Explorer.t -> Schedule.t
(** The agent-side program.  Raises [Invalid_argument] for labels outside
    [{1..space}], or [Fwr w] with [w < 1]. *)

val proven_time_bound : algorithm -> e:int -> space:int -> int
(** The paper's worst-case time bound for the algorithm over the whole
    label space. *)

val proven_cost_bound : algorithm -> e:int -> space:int -> int
(** The paper's worst-case cost bound. *)

val check_parties : n:int -> space:int -> party -> party -> (unit, string) result
(** [Ok ()] when the two parties are a valid input to {!run} on a graph
    of [n] nodes with label space [space]: labels in [1..space] and
    distinct, starts in [0..n-1] and distinct, delays non-negative.
    Otherwise [Error] names the first offending field and agent, for a
    caller to report instead of {!run} raising. *)

val run :
  ?model:Rv_sim.Sim.model ->
  ?record:bool ->
  ?trace_cap:int ->
  ?max_rounds:int ->
  g:Rv_graph.Port_graph.t ->
  explorer:(start:int -> Rv_explore.Explorer.t) ->
  algorithm:algorithm ->
  space:int ->
  party ->
  party ->
  Rv_sim.Sim.outcome
(** Simulate the two parties (distinct labels, distinct starts; delays are
    arbitrary non-negative — {!Rv_sim.Sim.run} normalizes the common
    prefix).  [explorer ~start] supplies each agent's
    exploration procedure — both must declare the same bound [E] (checked).
    [trace_cap] bounds the recorded trace ring (see {!Rv_sim.Sim.run}).
    Default [max_rounds] is the schedule duration plus the later delay,
    which the propositions guarantee is enough; a non-meeting outcome
    within that horizon indicates a bug and is reported in the outcome
    ([met = false]). *)

(** Gathering: the k-agent generalization with merge-on-meet semantics
    (paper, Section 1.4 cites gathering more than two agents as the natural
    extension of rendezvous).

    Meetings have an effect: agents that share a node from some round on
    merge into a {e group}.  A group is led by its smallest-labelled member
    — the natural choice, since after meeting the agents can compare labels
    — and from the merge round on, only the leader's program drives the
    group's moves; every member traverses along (each member's traversal
    counts toward cost, as k agents really move).

    With every agent running the simultaneous-start [Cheap] schedule, the
    smallest label explores during rounds [1..E] while all others are still
    waiting, so gathering completes within [E] rounds at cost [O(kE)] — a
    measured bonus result exercising the same schedule machinery. *)

type agent = {
  name : string;
  label : int;  (** drives leadership on merge; must be distinct *)
  start : int;
  step : Rv_explore.Explorer.instance;
}

type merge_event = { round : int; members : string list }
(** A merge that happened at [round], listing the resulting group. *)

type outcome = {
  gathered_round : int option;  (** first round a single group holds everyone *)
  merges : merge_event list;  (** in round order *)
  total_cost : int;  (** sum of every member's traversals *)
  rounds_run : int;
}

val run :
  g:Rv_graph.Port_graph.t -> max_rounds:int -> agent list -> outcome
(** Simultaneous start, waiting model.  Raises [Invalid_argument] on fewer
    than two agents, duplicate names, labels or starting nodes. *)

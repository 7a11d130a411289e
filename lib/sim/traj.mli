(** Materialized agent trajectories and the vectorized meeting scan.

    In the waiting model an agent's walk is a pure function of
    (graph, schedule, start): the agent is present from round 1, its
    step function sees only degrees and entry ports, and neither the
    partner nor the wake-up delay can influence it.  A {!t} is that walk
    executed once and flattened into int arrays, so that an adversarial
    sweep can replay it under every delay offset by scanning arrays with
    shifted indices instead of re-running the round-by-round simulator
    ({!Sim.run}) with its closure dispatch and observation allocation.

    {b Representation: runs and segments.}  The rendezvous algorithms
    spend most of their time waiting (Cheap's [2lE] pause, the pause
    blocks of Fast and FWR), so a {!t} stores rounds only where the
    agent runs an explorer.  Its timeline alternates between
    {e segments}, maximal stretches where it is pinned at one node, and
    {e runs}, maximal stretches of [Run] blocks.  Segment 0 holds round
    0 (and, for the scan, the agent's sleep before it) plus any leading
    wait; the last segment holds any trailing wait and every round after
    the schedule.  Each run round is stored as a position, the port
    taken ([-1] for a wait inside the run) and a cumulative move count;
    each segment as one table row (first round, last round, move count,
    offset of the run after it) and a node.  A walk of [R] run rounds in
    [k] runs therefore costs [3R + 5(k + 1)] words, whatever its
    duration: Cheap on ring:128 with label 4096 stores 254 rounds of a
    ~1.04 M-round schedule.

    {!meet} reproduces {!Sim.run}'s outcome exactly for the waiting
    model (same meeting round, node, costs, crossings and round cap
    semantics, including the delay normalization documented there); the
    equivalence is property-tested in [test/test_traj.ml] and asserted
    at bench time on full sweeps.

    The {e parachute} model is served by {!meet_intervals}: the walks
    themselves are model-independent ({!Sim}'s agents wait until their
    wake round in both models, so positions and ports are identical),
    and parachute presence only gates {e detection} — both agents are
    present exactly from round [max delay_a delay_b + 1] onwards.  The
    parachute scan is therefore the waiting scan with the detection
    window opened at that boundary instead of at round 1 (see DESIGN.md
    §3.5). *)

type t = private {
  start : int;  (** starting node *)
  rounds : int;
      (** the schedule's duration; the agent waits at its final node
          forever afterwards *)
  pos : int array;
      (** one entry per stored (run) round, in round order: the node
          after that round *)
  port : int array;  (** per stored round: the port taken, [-1] for a wait *)
  moves : int array;
      (** per stored round: edge traversals up to and including it *)
  segs : int array;
      (** the segment table, four ints per segment: first round, last
          round ([max_int] for the last segment), move count, and the
          offset [base] such that round [r] of the run after the segment
          is stored at index [r + base] *)
  seg_node : int array;  (** per segment: the node the agent is pinned at *)
}

val of_schedule :
  g:Rv_graph.Port_graph.t ->
  start:int ->
  rounds:int ->
  Rv_explore.Explorer.instance ->
  t
(** [of_schedule ~g ~start ~rounds step] steps [step] (a fresh
    {!Rv_core.Schedule.to_instance}-style stepper, i.e. an undelayed
    agent program starting in round 1) for exactly [rounds] rounds from
    [start] and records the walk: [of_blocks] on one [Run] block, so
    every round is stored.  Raises [Invalid_argument] on an out-of-range
    port, like {!Sim.run}. *)

type block =
  | Still of int  (** the agent waits in place this many rounds ([>= 0]) *)
  | Run of Rv_explore.Explorer.instance * int
      (** step this instance for that many rounds *)

type observations
(** Every observation an agent can make on one graph — each node's
    degree with each possible entry port — built once, so the block
    walkers below allocate nothing per round ({!Rv_explore.Explorer.observation}
    is immutable and can be shared). *)

val observations : Rv_graph.Port_graph.t -> observations

val of_blocks :
  ?obs:observations -> g:Rv_graph.Port_graph.t -> start:int -> block list -> t
(** Block-structured constructor, round for round equal to
    {!of_schedule} on the concatenated rounds ({!pos_at}, {!port_at} and
    {!cost_at} agree on every round) but costing O(run rounds + blocks)
    instead of O(duration): [Run] blocks step their instance and store
    each round, and a [Still] block only extends a segment.  Adjacent
    [Still] blocks share one segment, and zero-length blocks of either
    kind merge away.  This is what the sweep fast path feeds
    {!Rv_core.Schedule.t} steps into.  [obs] (built from [g] itself,
    else [Invalid_argument]) shares one observation table across builds;
    without it each call builds its own. *)

val stored : t -> int
(** Rounds and segments held: the run rounds plus one per segment.  This
    is what {!Traj_cache} charges an entry against its budget. *)

val execution_ports :
  observations ->
  node:int ->
  entry:int option ->
  Rv_explore.Explorer.instance ->
  rounds:int ->
  int array
(** [execution_ports obs ~node ~entry step ~rounds] steps one explorer
    execution [step] for [rounds] rounds from [node] on [obs]'s graph,
    alone, and returns the port it takes in each round ([-1] for a
    wait).  Its first observation is [node]'s degree with entry port
    [entry]: [None] as at a schedule's start or after a pause, [Some q]
    as when the execution follows another one whose last move entered
    [node] through port [q].  Later observations follow its own moves.
    Steps through the same per-round code as {!of_blocks}, so an invalid
    port raises the same [Invalid_argument]; so does an [entry] that is
    not a port of [node]. *)

val takes_ports :
  observations ->
  node:int ->
  entry:int option ->
  Rv_explore.Explorer.instance ->
  int array ->
  bool
(** [takes_ports obs ~node ~entry step ports] is [execution_ports obs
    ~node ~entry step ~rounds:(Array.length ports) = ports], computed
    without allocation and stopped at the first differing port.

    This is the step of a symmetry-reduced sweep's certification
    ([Rv_experiments.Workload.certify]): when the first execution from
    every node takes the ports of the one from node 0, under every
    first observation, and the family meets {!Rv_explore.Explorer}'s
    contract, every label's walk from [phi 0] takes the ports of its
    walk from 0, and {!image} applies. *)

val image : int array -> t -> t
(** [image phi t] is [t] with every stored position and segment node
    mapped through [phi] (and [start] with it); [port], [moves] and the
    segment table are shared, not copied.  When [phi] is a
    port-preserving automorphism and the walk from [phi t.start] takes
    [t]'s ports (see {!takes_ports}), this is round for round what
    {!of_blocks} builds from [phi t.start]: equal ports through [phi]
    force [pos' = phi ∘ pos] by induction, with the same [moves].  The
    caller owns that precondition. *)

val pos_at : t -> int -> int
(** [pos_at t r] is the node after [r] of the agent's own rounds: [start]
    for [r <= 0], the final node after [t.rounds].  O(segments); the
    scan does not use it. *)

val port_at : t -> int -> int
(** [port_at t r] is the port taken in round [r], [-1] for a wait and
    for every [r <= 0] or past the schedule. *)

val cost_at : t -> int -> int
(** [cost_at t r] is the number of edge traversals in the agent's first
    [r] rounds (0 for [r <= 0], the total after [t.rounds]). *)

type meeting = {
  met : bool;
  meeting_round : int option;
  meeting_node : int option;
  cost : int;
  cost_a : int;
  cost_b : int;
  rounds_run : int;
  crossings : int;
}
(** The delay-dependent outcome fields of {!Sim.outcome} (everything
    except the trace, which only the reference simulator records). *)

val meet : a:t -> b:t -> delay_a:int -> delay_b:int -> max_rounds:int -> meeting
(** [meet ~a ~b ~delay_a ~delay_b ~max_rounds] finds the first meeting
    of the two trajectories under the given wake-up delays in the
    waiting model, by walking both agents' segments and runs shifted by
    their delays: agent [a]'s position in absolute round [r] is
    [pos_at a (r - delay_a)].  A window where both agents are pinned is
    settled in O(1), one where a single agent runs is a scan of its
    stored positions for the other's node, and only windows where both
    run compare positions and ports round by round.  Same-node meetings
    and unnoticed edge crossings are detected from the positions at
    rounds [r - 1] and [r], exactly as {!Sim.run} does.  Nothing is
    allocated per round or per segment.

    Delays follow {!Sim.run}'s convention: arbitrary non-negative delays
    are accepted, the common [min delay] prefix is silent, and reported
    rounds include it.  Starting nodes must be distinct
    ([Invalid_argument] otherwise).

    When {!Rv_obs.Obs} is enabled, each call emits one ["traj.scan"]
    span and observes the scanned length in the ["traj.scan_rounds"]
    histogram. *)

val meet_intervals :
  a:t -> b:t -> delay_a:int -> delay_b:int -> max_rounds:int -> meeting
(** [meet_intervals] is {!meet} for the {e parachute} model: identical
    walks and delay normalization, but meetings and crossings are only
    detectable from round [max delay_a delay_b + 1] onwards — before
    that the later agent has not been placed ({!Sim.run}'s presence
    gate).  Reproduces {!Sim.run} [~model:Parachute] exactly on every
    outcome field; property-tested in [test/test_traj.ml].  Emits a
    ["traj.scan_intervals"] span when observation is enabled. *)

(** Materialized agent trajectories and the vectorized meeting scan.

    In the waiting model an agent's walk is a pure function of
    (graph, schedule, start): the agent is present from round 1, its
    step function sees only degrees and entry ports, and neither the
    partner nor the wake-up delay can influence it.  A {!t} is that walk
    executed once and flattened into int arrays — per-round position,
    port taken, and cumulative move count — so that an adversarial sweep
    can replay it under every delay offset by scanning arrays with
    shifted indices instead of re-running the round-by-round simulator
    ({!Sim.run}) with its closure dispatch and observation allocation.

    {!meet} reproduces {!Sim.run}'s outcome exactly for the waiting
    model (same meeting round, node, costs, crossings and round cap
    semantics, including the delay normalization documented there); the
    equivalence is property-tested in [test/test_traj.ml] and asserted
    at bench time on full sweeps.

    The {e parachute} model is served by {!meet_intervals}: the walks
    themselves are model-independent ({!Sim}'s agents wait until their
    wake round in both models, so position and port arrays are
    identical), and parachute presence only gates {e detection} — both
    agents are present exactly from round [max delay_a delay_b + 1]
    onwards.  The parachute scan is therefore the waiting scan with the
    detection window opened at that boundary instead of at round 1
    (see DESIGN.md §3.6). *)

type t = private {
  start : int;  (** starting node; [pos.(0)] *)
  rounds : int;
      (** materialized rounds — the schedule's duration; the agent
          waits at [pos.(rounds)] forever afterwards *)
  first_move : int;
      (** first round with a port taken, [rounds + 1] if the agent never
          moves.  The scan in {!meet} uses it to skip the wait prefix —
          for the label-scaled rendezvous schedules that prefix is the
          bulk of the walk — in O(1). *)
  pos : int array;  (** length [rounds + 1]; [pos.(r)] = node after round [r] *)
  port : int array;
      (** length [rounds + 1]; [port.(r)] = port taken in round [r],
          [-1] for a wait; [port.(0) = -1] *)
  moves : int array;
      (** length [rounds + 1]; prefix sums — [moves.(r)] = edge
          traversals in rounds [1..r], so cost-at-round is O(1) *)
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
    [start] and records the walk.  Raises [Invalid_argument] on an
    out-of-range port, like {!Sim.run}. *)

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
(** Block-structured constructor, equivalent to {!of_schedule} on the
    concatenated rounds but much cheaper when the schedule's shape is
    known: a [Still] block is materialized with [Array.fill] (no
    per-round dispatch — and the leading wait prefix of the label-scaled
    rendezvous schedules costs nothing at all, because the arrays are
    already initialized to the resting state).  [Run] blocks step their
    instance exactly like {!of_schedule}.  This is what the sweep fast
    path feeds {!Rv_core.Schedule.t} steps into.  [obs] (built from [g]
    itself, else [Invalid_argument]) shares one observation table across
    builds; without it each call builds its own. *)

val same_ports : observations -> start:int -> block list -> t -> bool
(** [same_ports obs ~start blocks t] is [true] iff [of_blocks ~start
    blocks] on [obs]'s graph would take port [t.port.(r)] in every
    round [r], computed without materializing that walk: the
    round counts are compared first, the blocks are then stepped from
    [start] and the first differing port ends the walk, and a [Still]
    block is checked in O(1) as [t] waiting through it
    ([t.moves] flat).  No allocation per round.  Steps agents through
    the same per-round code as {!of_blocks}, so an invalid port raises
    the same [Invalid_argument].

    This is the equivariance check of a symmetry-reduced sweep: if
    [phi] is a port-preserving automorphism ({!Rv_graph.Symmetry}),
    [t] was built from start [0] and [same_ports obs ~start:(phi 0)
    blocks' t] holds for the same label's blocks [blocks'] from
    [phi 0], then that walk is exactly [image phi t]. *)

val image : int array -> t -> t
(** [image phi t] is [t] with every position mapped through [phi] (and
    [start] with it); the [port] and [moves] arrays are shared, not
    copied.  When [phi] is a port-preserving automorphism and the walk
    from [phi t.start] takes [t]'s ports ({!same_ports}), this is
    field-for-field what {!of_blocks} builds from [phi t.start]: equal
    ports through [phi] force [pos' = phi ∘ pos] by induction, with the
    same [moves].  The caller owns that precondition. *)

val pos_at : t -> int -> int
(** [pos_at t r] is the node after [r] of the agent's own rounds,
    clamped into [0..t.rounds] (before round 1 the agent is at [start];
    after [t.rounds] it waits in place forever). *)

val cost_at : t -> int -> int
(** [cost_at t r] is the number of edge traversals in the agent's first
    [r] rounds, clamped like {!pos_at}. *)

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
    waiting model, by scanning the position arrays with shifted indices:
    agent [a]'s position in absolute round [r] is [pos_at a (r - delay_a)].
    Same-node meetings and unnoticed edge crossings are detected from
    the positions at rounds [r - 1] and [r], exactly as {!Sim.run} does.

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

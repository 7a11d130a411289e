(** Shared workload machinery for the experiment harness (see the
    experiment index in DESIGN.md Section 5 and the per-experiment
    modules [Exp_a] … [Exp_h]). *)

val all_ones_label : space:int -> int
(** The label [<= space] whose binary representation has maximum weight —
    the worst case for Algorithm [Fast]'s cost. *)

val sample_pairs : space:int -> max_pairs:int -> (int * int) list
(** Distinct label pairs to sweep: deterministic adversarial picks (small
    labels, extreme labels, the all-ones label) plus seeded random pairs,
    capped at [max_pairs].  All pairs are returned when the space is small
    enough. *)

type dispatch = [ `Auto | `Fast | `Reference ]
(** Kernel selection for {!worst_for}: [`Reference] forces the
    round-by-round simulator ({!Rv_sim.Sim.run}); [`Fast] forces the
    trajectory path; [`Auto] (the default) runs the trajectory path when
    the sweep has at least 128 configurations (label pairs x evaluated
    position pairs x delay pairs) and the reference simulator below
    that.  The rule reads only the inputs, never a clock.  The choice
    never affects results — the paths are byte-equivalent — only how
    fast they arrive. *)

module Stats : sig
  type snapshot = {
    covered : int;
        (** configurations accounted for in the output stream (each
            orbit representative counts once per orbit member) *)
    simulated : int;  (** configurations actually evaluated (sum below) *)
    reference_cells : int;  (** evaluated by {!Rv_sim.Sim.run} *)
    traj_cells : int;  (** evaluated by {!Rv_sim.Traj.meet} *)
    interval_cells : int;  (** evaluated by {!Rv_sim.Traj.meet_intervals} *)
    sym_group : string;
        (** the last sweep's symmetry outcome: ["off"] (not attempted),
            ["none"] (no usable group), ["order-<k>/uncertified"] (group
            found, walk family failed certification), or ["order-<k>"]
            (reduction active) *)
    orbit_size : int;  (** coverage multiplier; 1 unless reduction ran *)
    certify_walks : int;
        (** walks stepped from [phi(0)] to certify equivariance
            ({!Rv_sim.Traj.same_ports}), one per label and nonidentity
            automorphism until the first failure *)
    image_trajs : int;
        (** trajectories derived as automorphic images of a start-0 walk
            ({!Rv_sim.Traj.image}) instead of being stepped *)
  }

  val snapshot : unit -> snapshot
  (** Process-wide counts since start or the last {!reset} (cell,
      certification and image counters accumulate across sweeps;
      [sym_group] and [orbit_size] describe the most recent {!worst_for}
      call). *)

  val reset : unit -> unit
end

val worst_for :
  ?model:Rv_sim.Sim.model ->
  ?dispatch:dispatch ->
  ?sym:bool ->
  ?pool:Rv_engine.Pool.t ->
  ?sink:Rv_engine.Sink.t ->
  ?progress:Rv_engine.Progress.t ->
  ?graph_spec:string ->
  g:Rv_graph.Port_graph.t ->
  algorithm:Rv_core.Rendezvous.algorithm ->
  space:int ->
  explorer:(start:int -> Rv_explore.Explorer.t) ->
  pairs:(int * int) list ->
  positions:Rv_sim.Adversary.position_space ->
  delays:(int * int) list ->
  unit ->
  (int * int, string) result
(** Worst [(time, cost)] over the cross product of label pairs, starting
    positions and delays.  [Error] on any failed rendezvous.

    {b Kernel dispatch.}  [dispatch] (default [`Auto]) selects between
    the reference simulator and the trajectory path, which materializes
    each agent walk once per worker domain ({!Rv_sim.Traj},
    {!Rv_sim.Traj_cache}) and turns every configuration into an array
    scan under a delay offset — {!Rv_sim.Traj.meet} for the waiting
    model, {!Rv_sim.Traj.meet_intervals} for the parachute model.
    [`Auto] takes the trajectory path from 128 configurations up (under
    symmetry reduction, the representatives are what count): below
    that floor a sweep finishes in tens of microseconds either way, and
    building its walks costs more than its few short scans save — EXP-E's
    15-configuration cells ran at 0.63–0.69x of the reference simulator
    when forced onto the trajectory path.
    Outcomes — including the byte stream written to [sink] — are
    identical on every path; deep-trace runs ({!Rv_obs.Obs.deep}) always
    use the reference simulator, and setting the [RV_NO_TRAJ]
    environment variable forces it globally (CI compares the byte
    streams).

    {b Symmetry reduction.}  When [positions] is [`All_pairs], [sym] is
    [true] (the default) and the [RV_NO_SYM] environment variable is
    unset, the sweep detects the graph's port-preserving automorphism
    group ({!Rv_graph.Symmetry}), certifies that every label's walk is
    equivariant under it (the walk from each [phi(0)] is streamed against
    the label's walk from 0, port by port — explorers that follow node
    identities rather than observations fail here and fall back to the
    unreduced sweep), and then evaluates only the canonical
    representative [(0, c)] of each position-pair orbit —
    [1/orbit_size] of the space — replaying the full configuration
    stream through the representative table.  Each label's walk is
    stepped once, from start 0; the walk from [c] is its image under the
    automorphism sending 0 to [c] ({!Rv_sim.Traj.image}), both held by
    the trajectory cache under its memory budget.  Without a [sink],
    and when every representative met, the worst cell, [progress] and
    {!Stats} coverage are folded straight from the table instead.  The
    output — worst cell and every sink byte — is identical to the
    unreduced sweep (CI byte-compares against [RV_NO_SYM=1]); the only
    observable difference is eagerness: a failing pair's
    representatives are all evaluated even though the replayed stream
    stops at the failure.
    [`Fixed_first] is never reduced — under a free transitive action it
    is already an orbit transversal of the [(0, i)] pairs.

    [pool] parallelizes over label pairs (one task per pair; under
    reduction, deterministic per-pair subtasks via
    {!Rv_engine.Sweep.map_nested}); results — including the byte stream
    written to [sink] — are bit-for-bit identical to the sequential run
    because outcomes are merged in pair order on the calling domain (see
    {!Rv_engine.Sweep}).  [sink] receives one {!Rv_engine.Record.t} per
    covered configuration, tagged with [graph_spec] (default:
    ["n=<nodes>"]).  [progress] counters: one {!Rv_engine.Progress.tick}
    per pair, one [observe] per meeting.  Cell counts, cache traffic and
    the symmetry outcome are reported through {!Stats} and
    {!Rv_sim.Traj_cache.stats}. *)

val ring_delays : e:int -> (int * int) list
(** The adversarial delay set used by the delay-tolerant experiments:
    0, 1, [E/2], [E], [E+1] in both orders. *)

val e_of : (start:int -> Rv_explore.Explorer.t) -> int
(** The declared bound of the supplied explorer family (queried at
    [start:0]). *)

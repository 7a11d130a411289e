(** The worst-case sweep and its inputs.  {!worst_for} maximises time
    and cost over label pairs, starting positions and wake-up delays;
    the experiment tables ([Exp_a] … [Exp_m], indexed in DESIGN.md
    Section 5), [rv sweep], the query server and the bake all run it. *)

val all_ones_label : space:int -> int
(** The label [<= space] whose binary representation has maximum weight —
    the worst case for Algorithm [Fast]'s cost. *)

val sample_pairs : space:int -> max_pairs:int -> (int * int) list
(** Distinct label pairs to sweep: deterministic adversarial picks (small
    labels, extreme labels, the all-ones label) plus seeded random pairs,
    capped at [max_pairs].  All pairs are returned when the space is small
    enough. *)

type position_space =
  [ `All_pairs  (** all ordered pairs of distinct nodes *)
  | `Fixed_first  (** agent A at node 0, agent B anywhere else *)
  | `Pairs of (int * int) list  (** explicit list *) ]
(** The adversary's choice of starting positions.  [`Fixed_first]
    exploits vertex-transitivity of rings and tori to pin the first
    agent at node 0. *)

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
    certify_executions : int;
        (** explorer executions stepped to certify equivariance
            ({!certify}): one from every node under every first
            observation, n * (degree + 1), until the first failure *)
    image_trajs : int;
        (** trajectories derived as automorphic images of a start-0 walk
            ({!Rv_sim.Traj.image}) instead of being stepped: one per
            label pair and representative of a reduced sweep on the
            trajectory kernel *)
  }

  val snapshot : unit -> snapshot
  (** Process-wide counts since start or the last {!reset} (cell,
      certification and image counters accumulate across sweeps;
      [sym_group] and [orbit_size] describe the most recent {!worst_for}
      call). *)

  val reset : unit -> unit
end

val certify :
  g:Rv_graph.Port_graph.t ->
  Rv_graph.Symmetry.t ->
  explorer:(start:int -> Rv_explore.Explorer.t) ->
  bool
(** [certify ~g s ~explorer] (for a group [s] detected on [g]) is the
    equivariance check a symmetry-reduced {!worst_for} rests on: every
    start declares node 0's bound [E] and, for each first observation
    an execution can begin with (no entry port, or each port of node
    0's degree), the first execution of [explorer ~start:u] from every
    node [u = phi 0] takes the ports of the first execution of
    [explorer ~start:0] from 0 ({!Rv_sim.Traj.takes_ports}).  It steps
    n * (degree + 1) executions of [E] rounds, whatever the labels,
    stopping at the first mismatch, and adds them to
    {!Stats.certify_executions}.

    Every rendezvous schedule runs one family's executions between
    pauses, so by induction over its blocks, when [certify] holds, every
    label's walk from [phi 0] takes the ports of its walk from 0 and is
    that walk's image under [phi] ({!Rv_sim.Traj.image}) — {e provided}
    the family meets {!Rv_explore.Explorer}'s contract: an execution
    depends only on the node where it begins and on what it observes.
    [certify] does not check that premise;
    {!Rv_explore.Bounds.verify_repeated} does, and every family built by
    {!Spec.parse_explorer} meets it. *)

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
  positions:position_space ->
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
    use the reference simulator.  The function reads no environment
    variable: [rv sweep] maps [RV_NO_TRAJ] to [~dispatch:`Reference] and
    [RV_NO_SYM] to [~sym:false], and CI compares its byte streams.

    {b One executor.}  A label pair's configuration stream is its
    position pairs in order, delays inner, up to and including its first
    failure.  Every sweep evaluates a table of the pair's {e cells} under
    every delay: the whole stream's position pairs, or under the
    symmetry reduction below only the representatives.  The cells are
    the stream's first position pairs, so the table is a prefix of the
    stream, and the table's first failure is the stream's.  Every cell
    is evaluated, so a failing pair's cells past its first failure are
    evaluated too, although the stream stops there.  On the trajectory
    kernel a cell's two walks are fetched once and scanned under every
    delay.

    {b Symmetry reduction.}  When [positions] is [`All_pairs] and [sym]
    is [true] (the default), the sweep detects the graph's port-preserving
    automorphism group ({!Rv_graph.Symmetry}), certifies that the walk
    family is equivariant under it ({!certify}: explorers that follow
    node identities rather than observations fail there and fall back to
    the unreduced sweep), and then evaluates only the canonical
    representative [(0, c)] of each position-pair orbit —
    [1/orbit_size] of the space.  These lead the [`All_pairs] order, and
    every other configuration's outcome is its representative's.  Each
    label's walk is stepped once, from start 0, into the sweep's one
    trajectory cache, under its memory budget; the walk from [c] is its
    image under the automorphism sending 0 to [c]
    ({!Rv_sim.Traj.image}), derived just before representative
    [(0, c)]'s delay scans and dropped after them, so images never enter
    the cache.  The output — worst cell and every sink byte — is
    identical to the unreduced sweep ([~sym:false]; CI byte-compares the
    two).  The reduction requires [explorer] to meet
    {!Rv_explore.Explorer}'s contract (see {!certify}); a family that
    acts on the start it was built for, or on its earlier executions,
    beyond the node where an execution begins can certify and still
    yield a wrong reduced sweep.
    [`Fixed_first] is never reduced — under a free transitive action it
    is already an orbit transversal of the [(0, i)] pairs.

    [pool] runs the tables as {!Rv_engine.Sweep.map_nested} chunk
    tasks: a pair is one chunk, or under reduction up to 8 chunks of its
    representatives.  The decomposition depends only on the inputs.  The
    calling domain then merges the pairs in order (see
    {!Rv_engine.Sweep}), so results — including the byte stream written
    to [sink] — are bit-for-bit identical to the sequential run.
    Without a [sink] a chunk returns only its fold (the maxima before
    its first failure, and that failure), so the sweep keeps no
    per-configuration state.  With one, a chunk also keeps each
    configuration's time and cost, and the merge replays each pair's
    stream from its table straight into {!Rv_engine.Sink.emit}: one
    {!Rv_engine.Record.t} per covered configuration, tagged with
    [graph_spec] (default: ["n=<nodes>"]), no record list.  Every pair's
    stream reaches the sink, up to its own first failure, even past the
    first pair that fails.  [progress] counters: one
    {!Rv_engine.Progress.tick} and one [observe] of the pair's maxima
    per pair, at the merge.  Cell counts, cache traffic and the symmetry
    outcome are reported through {!Stats} and
    {!Rv_sim.Traj_cache.stats}. *)

val ring_delays : e:int -> (int * int) list
(** The adversarial delay set used by the delay-tolerant experiments:
    0, 1, [E/2], [E], [E+1] in both orders. *)

val sampled_delays :
  Rv_core.Rendezvous.algorithm -> max_delay:int -> (int * int) list
(** The delay pairs [rv sweep] and served [worst] queries sweep:
    [(0,0); (0,1); (0,D); (1,0); (D,0)] for [D = max_delay], sorted and
    deduplicated, when the algorithm tolerates delays, and [[(0,0)]]
    otherwise. *)

val e_of : (start:int -> Rv_explore.Explorer.t) -> int
(** The declared bound of the supplied explorer family (queried at
    [start:0]). *)

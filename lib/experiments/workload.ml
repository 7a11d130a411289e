module R = Rv_core.Rendezvous
module Rng = Rv_util.Rng
module Pg = Rv_graph.Port_graph
module Sym = Rv_graph.Symmetry
module Engine_sweep = Rv_engine.Sweep
module Sink = Rv_engine.Sink
module Progress = Rv_engine.Progress

let all_ones_label ~space =
  let rec grow candidate =
    let next = (candidate * 2) + 1 in
    if next <= space then grow next else candidate
  in
  grow 1

module Int_set = Set.Make (Int)

(* Label pairs 1 <= a < b <= space in bijection with triangular indices
   0 .. space(space-1)/2 - 1: the pairs with second coordinate [b]
   occupy indices T(b-2) .. T(b-1) - 1, where T(k) = k(k+1)/2. *)
let index_of_pair (a, b) = ((b - 1) * (b - 2) / 2) + (a - 1)

let pair_of_index i =
  (* Largest k with T(k) <= i, via a float sqrt corrected by stepping. *)
  let k =
    ref (int_of_float ((sqrt ((8. *. float_of_int i) +. 1.) -. 1.) /. 2.))
  in
  if !k < 0 then k := 0;
  while (!k + 1) * (!k + 2) / 2 <= i do
    incr k
  done;
  while !k * (!k + 1) / 2 > i do
    decr k
  done;
  (i - (!k * (!k + 1) / 2) + 1, !k + 2)

let sample_pairs ~space ~max_pairs =
  (* The number of pairs a < b is known arithmetically; never materialize
     the O(space^2) cross product just to count it. *)
  let total = space * (space - 1) / 2 in
  if total <= max_pairs then
    List.concat_map
      (fun a ->
        List.filter_map (fun b -> if a < b then Some (a, b) else None)
          (List.init space (fun b -> b + 1)))
      (List.init space (fun a -> a + 1))
  else begin
    let ones = all_ones_label ~space in
    let seeds =
      [
        (1, 2);
        (1, space);
        (space - 1, space);
        (min ones (space - 1), space);
        (1, ones);
        (2, 3);
        (space / 2, (space / 2) + 1);
      ]
    in
    let seeds =
      List.filter (fun (a, b) -> a >= 1 && b <= space && a < b) seeds
      |> List.sort_uniq Rv_util.Ord.(pair int int)
    in
    let seeds = List.filteri (fun i _ -> i < max_pairs) seeds in
    (* Draw the remaining pairs as distinct triangular indices in the
       complement of the seeds, with Floyd's algorithm: exactly [need]
       draws, no rejection loop, so the cost is bounded even when
       [max_pairs] approaches [total].  Membership goes through an
       Ord-keyed set, not a polymorphic-hash table. *)
    let seed_idx = List.sort Rv_util.Ord.int (List.map index_of_pair seeds) in
    let need = max_pairs - List.length seeds in
    let m = total - List.length seeds in
    let rng = Rng.create ~seed:0xA11 in
    let chosen = ref Int_set.empty and order = ref [] in
    for j = m - need to m - 1 do
      let t = Rng.int rng (j + 1) in
      let v = if Int_set.mem t !chosen then j else t in
      chosen := Int_set.add v !chosen;
      order := v :: !order
    done;
    (* Lift an index from [0, total - #seeds) into [0, total) minus the
       seed indices. *)
    let lift v = List.fold_left (fun v s -> if s <= v then v + 1 else v) v seed_idx in
    seeds @ List.rev_map (fun v -> pair_of_index (lift v)) !order
  end

type position_space = [ `All_pairs | `Fixed_first | `Pairs of (int * int) list ]

let expand_positions ~g = function
  | `Pairs l -> l
  | `Fixed_first -> List.init (Pg.n g - 1) (fun i -> (0, i + 1))
  | `All_pairs ->
      let n = Pg.n g in
      List.concat_map
        (fun a ->
          List.filter_map (fun b -> if a <> b then Some (a, b) else None)
            (List.init n (fun b -> b)))
        (List.init n (fun a -> a))

type dispatch = [ `Auto | `Fast | `Reference ]

(* --- sweep accounting -------------------------------------------------- *)

module Stats = struct
  type snapshot = {
    covered : int;
    simulated : int;
    reference_cells : int;
    traj_cells : int;
    interval_cells : int;
    sym_group : string;
    orbit_size : int;
    certify_executions : int;
    image_trajs : int;
  }

  let covered = Atomic.make 0

  let reference_cells = Atomic.make 0

  let traj_cells = Atomic.make 0

  let interval_cells = Atomic.make 0

  let sym_group = Atomic.make "off"

  let orbit = Atomic.make 1

  let certify_executions = Atomic.make 0

  let image_trajs = Atomic.make 0

  let snapshot () =
    let reference_cells = Atomic.get reference_cells in
    let traj_cells = Atomic.get traj_cells in
    let interval_cells = Atomic.get interval_cells in
    {
      covered = Atomic.get covered;
      simulated = reference_cells + traj_cells + interval_cells;
      reference_cells;
      traj_cells;
      interval_cells;
      sym_group = Atomic.get sym_group;
      orbit_size = Atomic.get orbit;
      certify_executions = Atomic.get certify_executions;
      image_trajs = Atomic.get image_trajs;
    }

  let reset () =
    Atomic.set covered 0;
    Atomic.set reference_cells 0;
    Atomic.set traj_cells 0;
    Atomic.set interval_cells 0;
    Atomic.set sym_group "off";
    Atomic.set orbit 1;
    Atomic.set certify_executions 0;
    Atomic.set image_trajs 0
end

(* Per-task counts, flushed to the process-wide atomics once per task —
   the hot loop never touches shared state. *)
type tally = {
  mutable ref_c : int;
  mutable traj_c : int;
  mutable intv_c : int;
  mutable images : int;
}

let flush_tally t =
  if t.ref_c > 0 then ignore (Atomic.fetch_and_add Stats.reference_cells t.ref_c);
  if t.traj_c > 0 then ignore (Atomic.fetch_and_add Stats.traj_cells t.traj_c);
  if t.intv_c > 0 then ignore (Atomic.fetch_and_add Stats.interval_cells t.intv_c);
  if t.images > 0 then ignore (Atomic.fetch_and_add Stats.image_trajs t.images)

(* One chunk of a label pair's outcome table: the maxima before its
   first failing configuration and that configuration's table index (-1
   when every one met), and, when a sink will replay the table, every
   configuration's time (the meeting round, or the rounds run when it
   failed) and cost. *)
type chunk = {
  worst_t : int;
  worst_c : int;
  failure : int;
  times : int array;
  costs : int array;
}

(* Below this many configurations `Auto keeps the reference simulator.
   Such a sweep finishes in tens of microseconds on either kernel, and
   building its walks can cost more than the few short scans it saves:
   EXP-E's cells (15 configurations each, meetings within a few rounds)
   ran at 0.63-0.69x of the reference simulator when forced onto the
   trajectory kernel. *)
let small_sweep_configs = 128

(* The group is transitive, so every node is some phi(0) and has node
   0's degree: these are all the first executions a schedule can run.
   The interface gives the induction that makes them enough. *)
let certify ~g s ~explorer =
  let obs = Rv_sim.Traj.observations g in
  let others =
    List.filter_map
      (fun phi -> if phi.(0) = 0 then None else Some phi.(0))
      (Array.to_list (Sym.automorphisms s))
  in
  let first_execution u = (explorer ~start:u).Rv_explore.Explorer.fresh () in
  let e = (explorer ~start:0).Rv_explore.Explorer.bound in
  let executions = ref 0 in
  let certified =
    List.for_all (fun u -> (explorer ~start:u).Rv_explore.Explorer.bound = e) others
    && List.for_all
         (fun entry ->
           incr executions;
           let ports =
             Rv_sim.Traj.execution_ports obs ~node:0 ~entry (first_execution 0) ~rounds:e
           in
           List.for_all
             (fun u ->
               incr executions;
               Rv_sim.Traj.takes_ports obs ~node:u ~entry (first_execution u) ports)
             others)
         (None :: List.init (Pg.degree g 0) Option.some)
  in
  ignore (Atomic.fetch_and_add Stats.certify_executions !executions);
  certified

let worst_for ?model ?(dispatch = `Auto) ?(sym = true) ?pool ?sink ?progress
    ?graph_spec ~g ~algorithm ~space ~explorer ~pairs ~positions ~delays () =
  (* Positions vary inside the sweep, and map-based explorers need the
     true start, so the position space is expanded into explicit pairs:
     a label pair's configuration stream is [stream] in order, delays
     inner. *)
  let stream = Array.of_list (expand_positions ~g positions) in
  let graph_spec =
    match graph_spec with
    | Some s -> s
    | None -> Printf.sprintf "n=%d" (Pg.n g)
  in
  let algo_name = R.name algorithm in
  let n = Pg.n g in
  let model_v = match model with None -> Rv_sim.Sim.Waiting | Some m -> m in
  let non_empty = function [] -> false | _ :: _ -> true in
  let have_work = non_empty pairs && Array.length stream > 0 && non_empty delays in
  (* Trajectory-path eligibility.  Deep-trace runs (per-phase spans need
     the live simulator) keep the reference path, as does
     [~dispatch:`Reference].  The parachute model is served by
     Traj.meet_intervals — walks are model-independent, presence only
     gates detection — so it is no longer excluded. *)
  let traj_allowed =
    (match dispatch with `Reference -> false | `Fast | `Auto -> true)
    && not (Rv_obs.Obs.deep ())
  in
  let walk_obs = Rv_sim.Traj.observations g in
  let blocks_of ~label ~start =
    let ex = explorer ~start in
    List.map
      (function
        | Rv_core.Schedule.Pause k -> Rv_sim.Traj.Still k
        | Rv_core.Schedule.Explore e ->
            Rv_sim.Traj.Run (e.Rv_explore.Explorer.fresh (), e.Rv_explore.Explorer.bound))
      (R.schedule algorithm ~space ~label ~explorer:ex)
  in
  let build_traj ~label ~start =
    Rv_sim.Traj.of_blocks ~obs:walk_obs ~g ~start (blocks_of ~label ~start)
  in
  (* One trajectory cache per sweep, around the plain build: the
     unreduced trajectory kernel keeps every walk it scans there, a
     reduced sweep only each label's walk from start 0. *)
  let cache = Rv_sim.Traj_cache.create ~build:build_traj () in
  (* --- symmetry reduction ---------------------------------------------
     Only the full ordered-pair space can be quotiented (Fixed_first is
     already a rotation transversal; explicit pair lists carry caller
     intent).  The group is detected from scratch with checked witnesses
     (Rv_graph.Symmetry), and the walk family is then certified
     equivariant by [certify] — an explorer like a global Hamiltonian
     walk follows node identities, not observations, and silently breaks
     orbit invariance, so certification failure falls back to the
     unreduced sweep rather than trusting the graph alone.

     Each label's walk is stepped once, from start 0, into the cache; the
     walk from any other start [c] is its image under the automorphism
     sending 0 to c (Traj.image), exact once the family is certified.  A
     reduced chunk derives that image just before the representative's
     delay scans and drops it after them. *)
  let sym_wanted =
    sym
    && (match positions with `All_pairs -> true | `Fixed_first | `Pairs _ -> false)
    && have_work
  in
  let group, symq =
    if not sym_wanted then ("off", None)
    else
      let s = Sym.detect g in
      if not (Sym.reducible s) then ("none", None)
      else if certify ~g s ~explorer then (Sym.group_name s, Some s)
      else (Sym.group_name s ^ "/uncertified", None)
  in
  Atomic.set Stats.sym_group group;
  Atomic.set Stats.orbit (match symq with Some s -> Sym.orbit_size s | None -> 1);
  (* A label pair's cells are the stream's first [cells] positions; its
     outcome table holds cell k under delay d at k * nd + d, so the table
     is a prefix of the stream.  Unreduced, the cells are the whole
     stream.  Under a certified reduction they are the canonical
     representatives (0, c), c = 1 .. n-1 (free transitive action), 1/orbit
     of the space, and they lead the `All_pairs order; every other
     configuration replays its representative's outcome (Sym.canon_pair),
     which is orbit-invariant.  Either way the table's first failure is
     the stream's, and coverage up to it is its index + 1. *)
  let cells = match symq with Some _ -> n - 1 | None -> Array.length stream in
  (* `Auto is a size rule on the configurations actually evaluated.  It
     reads only the inputs, so the kernel split that --stats reports
     does too. *)
  let configs = List.length pairs * cells * List.length delays in
  let use_fast =
    traj_allowed
    &&
    match dispatch with
    | `Fast -> true
    | `Reference -> false
    | `Auto -> configs >= small_sweep_configs
  in
  (* The reference path checks per run that the labels differ and that
     both agents' explorers declare the same bound E (Rendezvous.run);
     replicate the checks up front.  Each distinct start's bound is read
     once, so a position pair costs two lookups, not two explorer
     constructions. *)
  if use_fast then begin
    List.iter
      (fun (la, lb) -> if la = lb then invalid_arg "Rendezvous.run: labels must be distinct")
      pairs;
    let bounds = Hashtbl.create 64 in
    let bound_at start =
      match Hashtbl.find_opt bounds start with
      | Some b -> b
      | None ->
          let b = (explorer ~start).Rv_explore.Explorer.bound in
          Hashtbl.add bounds start b;
          b
    in
    Array.iter
      (fun (pa, pb) ->
        if bound_at pa <> bound_at pb then
          invalid_arg "Rendezvous.run: the two agents' explorers declare different bounds E")
      stream
  end;
  (* Scan one configuration on two walks; returns the outcome fields the
     sweep consumes.  Every kernel agrees exactly (property-tested in
     test/test_traj.ml for both models, re-asserted at bench time and by
     CI's byte comparisons of rv sweep under RV_NO_TRAJ / RV_NO_SYM). *)
  let scan tally ta tb ~da ~db =
    let max_rounds =
      max (ta.Rv_sim.Traj.rounds + da) (tb.Rv_sim.Traj.rounds + db) + 1
    in
    let m =
      match model_v with
      | Rv_sim.Sim.Waiting ->
          tally.traj_c <- tally.traj_c + 1;
          Rv_sim.Traj.meet ~a:ta ~b:tb ~delay_a:da ~delay_b:db ~max_rounds
      | Rv_sim.Sim.Parachute ->
          tally.intv_c <- tally.intv_c + 1;
          Rv_sim.Traj.meet_intervals ~a:ta ~b:tb ~delay_a:da ~delay_b:db ~max_rounds
    in
    (m.Rv_sim.Traj.meeting_round, m.Rv_sim.Traj.cost, m.Rv_sim.Traj.rounds_run)
  in
  (* One cell's outcome under any delay pair.  On the trajectory kernel
     its two walks are fetched once, before its delay scans: a cache
     lookup, or under reduction the image of lb's start-0 walk, derived
     here and dropped after the scans. *)
  let cell tally ~la ~lb ~pa ~pb =
    if use_fast then begin
      let ta = Rv_sim.Traj_cache.get cache ~label:la ~start:pa in
      let tb =
        match symq with
        | None -> Rv_sim.Traj_cache.get cache ~label:lb ~start:pb
        | Some s ->
            tally.images <- tally.images + 1;
            Rv_obs.Obs.span ~cat:"traj"
              ~args:[ ("label", Rv_obs.Json.Int lb); ("start", Rv_obs.Json.Int pb) ]
              "traj.build"
              (fun () ->
                Rv_sim.Traj.image (Sym.from_zero s pb)
                  (Rv_sim.Traj_cache.get cache ~label:lb ~start:0))
      in
      scan tally ta tb
    end
    else fun ~da ~db ->
      tally.ref_c <- tally.ref_c + 1;
      let out =
        R.run ?model ~g ~explorer ~algorithm ~space
          { R.label = la; start = pa; delay = da }
          { R.label = lb; start = pb; delay = db }
      in
      (out.Rv_sim.Sim.meeting_round, out.Rv_sim.Sim.cost, out.Rv_sim.Sim.rounds_run)
  in
  let obs = Rv_obs.Obs.enabled () in
  let pair_arr = Array.of_list pairs in
  let delay_arr = Array.of_list delays in
  let nd = Array.length delay_arr in
  (* Under reduction every cell of a pair scans the same two start-0
     walks, so a pair splits into up to 8 chunks that the pool balances
     (Sweep.map_nested: the decomposition depends only on the cell
     counts, never on the pool).  An unreduced chunk would need the
     partner's walk from every start, built again by each domain's
     cache, so there a pair is one chunk. *)
  let chunks_per_pair = min (match symq with Some _ -> 8 | None -> 1) cells in
  let chunk_lo j = (j * (cells / chunks_per_pair)) + min j (cells mod chunks_per_pair) in
  (* Without a sink a chunk keeps only its fold, no per-configuration
     state. *)
  let run_chunk o j =
    let la, lb = pair_arr.(o) in
    if obs then
      Rv_obs.Obs.begin_span ~cat:"workload"
        ~args:[ ("la", Rv_obs.Json.Int la); ("lb", Rv_obs.Json.Int lb) ]
        "workload.chunk";
    let tally = { ref_c = 0; traj_c = 0; intv_c = 0; images = 0 } in
    let lo = chunk_lo j and hi = chunk_lo (j + 1) in
    let kept = match sink with Some _ -> (hi - lo) * nd | None -> 0 in
    let times = Array.make kept 0 and costs = Array.make kept 0 in
    let worst_t = ref 0 and worst_c = ref 0 and failure = ref (-1) in
    for k = lo to hi - 1 do
      let pa, pb = stream.(k) in
      let outcome = cell tally ~la ~lb ~pa ~pb in
      for d = 0 to nd - 1 do
        let da, db = delay_arr.(d) in
        let meeting_round, cost, rounds_run = outcome ~da ~db in
        if kept > 0 then begin
          let at = ((k - lo) * nd) + d in
          times.(at) <- Option.value meeting_round ~default:rounds_run;
          costs.(at) <- cost
        end;
        if !failure < 0 then
          match meeting_round with
          | Some t ->
              worst_t := max !worst_t t;
              worst_c := max !worst_c cost
          | None -> failure := (k * nd) + d
      done
    done;
    flush_tally tally;
    if obs then Rv_obs.Obs.end_span ();
    { worst_t = !worst_t; worst_c = !worst_c; failure = !failure; times; costs }
  in
  (* Fold one pair's chunks in order: the pair fails at its first failing
     chunk's failure, and its maxima run up to it. *)
  let merge_pair o chunks =
    let la, lb = pair_arr.(o) in
    let worst_t = ref 0 and worst_c = ref 0 and failure = ref (-1) in
    Array.iter
      (fun c ->
        if !failure < 0 then begin
          worst_t := max !worst_t c.worst_t;
          worst_c := max !worst_c c.worst_c;
          failure := c.failure
        end)
      chunks;
    let failure = !failure in
    let covered = if failure < 0 then Array.length stream * nd else failure + 1 in
    Option.iter
      (fun p ->
        Progress.observe p ~time:!worst_t ~cost:!worst_c;
        Progress.tick p)
      progress;
    ignore (Atomic.fetch_and_add Stats.covered covered);
    (* The sink replays the stream up to [covered], each configuration's
       outcome read from its cell's table entry. *)
    Option.iter
      (fun s ->
        let table f = Array.concat (Array.to_list (Array.map f chunks)) in
        let times = table (fun c -> c.times) and costs = table (fun c -> c.costs) in
        for j = 0 to covered - 1 do
          let i = j / nd and d = j mod nd in
          let pa, pb = stream.(i) in
          let k = match symq with Some q -> snd (Sym.canon_pair q pa pb) - 1 | None -> i in
          let da, db = delay_arr.(d) in
          Sink.emit s
            {
              Rv_engine.Record.graph = graph_spec;
              algorithm = algo_name;
              label_a = la;
              label_b = lb;
              start_a = pa;
              start_b = pb;
              delay_a = da;
              delay_b = db;
              met = j <> failure;
              time = times.((k * nd) + d);
              cost = costs.((k * nd) + d);
            }
        done)
      sink;
    if obs then Rv_obs.Counter.count "workload.pairs" 1;
    if failure < 0 then Ok (!worst_t, !worst_c)
    else
      let pa, pb = stream.(failure / nd) and da, db = delay_arr.(failure mod nd) in
      Error
        (Printf.sprintf "%s: no rendezvous (labels %d/%d, starts %d/%d, delays %d/%d)"
           algo_name la lb pa pb da db)
  in
  let chunked =
    Engine_sweep.map_nested ?pool ~chunk:1
      (Array.make (Array.length pair_arr) chunks_per_pair)
      run_chunk
  in
  let result = ref (Ok (0, 0)) in
  Array.iteri
    (fun o chunks ->
      match (!result, merge_pair o chunks) with
      | Error _, _ -> ()
      | Ok _, (Error _ as e) -> result := e
      | Ok (at, ac), Ok (t, c) -> result := Ok (max at t, max ac c))
    chunked;
  !result

let ring_delays ~e =
  let ds = List.sort_uniq Int.compare [ 0; 1; e / 2; e; e + 1 ] in
  List.map (fun d -> (0, d)) ds @ List.filter_map (fun d -> if d > 0 then Some (d, 0) else None) ds

let sampled_delays algorithm ~max_delay =
  if R.delay_tolerant algorithm then
    List.sort_uniq
      Rv_util.Ord.(pair int int)
      [ (0, 0); (0, 1); (0, max_delay); (1, 0); (max_delay, 0) ]
  else [ (0, 0) ]

let e_of explorer = (explorer ~start:0).Rv_explore.Explorer.bound

module R = Rv_core.Rendezvous
module Adv = Rv_sim.Adversary
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
    certify_walks : int;
    image_trajs : int;
  }

  let covered = Atomic.make 0

  let reference_cells = Atomic.make 0

  let traj_cells = Atomic.make 0

  let interval_cells = Atomic.make 0

  let sym_group = Atomic.make "off"

  let orbit = Atomic.make 1

  let certify_walks = Atomic.make 0

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
      certify_walks = Atomic.get certify_walks;
      image_trajs = Atomic.get image_trajs;
    }

  let reset () =
    Atomic.set covered 0;
    Atomic.set reference_cells 0;
    Atomic.set traj_cells 0;
    Atomic.set interval_cells 0;
    Atomic.set sym_group "off";
    Atomic.set orbit 1;
    Atomic.set certify_walks 0;
    Atomic.set image_trajs 0
end

(* Per-task cell counts, flushed to the process-wide atomics once per
   task — the hot loop never touches shared state. *)
type tally = { mutable ref_c : int; mutable traj_c : int; mutable intv_c : int }

(* Image trajectories are derived inside Traj_cache.get, below any
   task's tally, so they are counted in the building domain's own cell
   and moved out by that domain's next flush — a domain runs one task
   at a time, so each flush carries exactly its task's images. *)
let images_built = Domain.DLS.new_key (fun () -> ref 0)

let flush_tally t =
  if t.ref_c > 0 then ignore (Atomic.fetch_and_add Stats.reference_cells t.ref_c);
  if t.traj_c > 0 then ignore (Atomic.fetch_and_add Stats.traj_cells t.traj_c);
  if t.intv_c > 0 then ignore (Atomic.fetch_and_add Stats.interval_cells t.intv_c);
  let images = Domain.DLS.get images_built in
  if !images > 0 then begin
    ignore (Atomic.fetch_and_add Stats.image_trajs !images);
    images := 0
  end

(* Below this many configurations `Auto keeps the reference simulator.
   Such a sweep finishes in tens of microseconds on either kernel, and
   building its walks can cost more than the few short scans it saves:
   EXP-E's cells (15 configurations each, meetings within a few rounds)
   ran at 0.63-0.69x of the reference simulator when forced onto the
   trajectory kernel. *)
let small_sweep_configs = 128

let worst_for ?model ?(dispatch = `Auto) ?(sym = true) ?pool ?sink ?progress
    ?graph_spec ~g ~algorithm ~space ~explorer ~pairs ~positions ~delays () =
  (* Positions vary inside the sweep, and map-based explorers need the
     true start, so expand the position space here instead of going
     through [Adversary.sweep], whose factories are blind to starts. *)
  let expand = expand_positions ~g positions in
  let graph_spec =
    match graph_spec with
    | Some s -> s
    | None -> Printf.sprintf "n=%d" (Pg.n g)
  in
  let algo_name = R.name algorithm in
  let n = Pg.n g in
  let model_v = match model with None -> Rv_sim.Sim.Waiting | Some m -> m in
  let non_empty = function [] -> false | _ :: _ -> true in
  let have_work = non_empty pairs && non_empty expand && non_empty delays in
  (* Trajectory-path eligibility.  Deep-trace runs (per-phase spans need
     the live simulator) keep the reference path, as does RV_NO_TRAJ=1
     or [~dispatch:`Reference].  The parachute model is served by
     Traj.meet_intervals — walks are model-independent, presence only
     gates detection — so it is no longer excluded. *)
  let traj_allowed =
    (match dispatch with `Reference -> false | `Fast | `Auto -> true)
    && Sys.getenv_opt "RV_NO_TRAJ" = None
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
  (* --- symmetry reduction ---------------------------------------------
     Only the full ordered-pair space can be quotiented (Fixed_first is
     already a rotation transversal; explicit pair lists carry caller
     intent).  The group is detected from scratch with checked witnesses
     (Rv_graph.Symmetry), and the walk family is then certified
     equivariant label by label — an explorer like a global Hamiltonian
     walk follows node identities, not observations, and silently breaks
     orbit invariance, so certification failure falls back to the
     unreduced sweep rather than trusting the graph alone.

     Each label's walk is stepped once, from start 0, into a trajectory
     cache whose build for any other start [c] is that walk's image under
     the automorphism sending 0 to c (Traj.image) — exact once the label
     is certified, which is what the streamed walks from every phi(0)
     prove.  Start-0 walks live only in the cache, under its memory
     budget; evicted ones are rebuilt on demand. *)
  let sym_wanted =
    sym
    && Sys.getenv_opt "RV_NO_SYM" = None
    && (match positions with `All_pairs -> true | `Fixed_first | `Pairs _ -> false)
    && have_work
  in
  let symq =
    if not sym_wanted then None
    else
      let s = Sym.detect g in
      if not (Sym.reducible s) then begin
        Atomic.set Stats.sym_group "none";
        Atomic.set Stats.orbit 1;
        None
      end
      else begin
        let labels =
          List.sort_uniq Int.compare (List.concat_map (fun (a, b) -> [ a; b ]) pairs)
        in
        let rec sym_cache = lazy (Rv_sim.Traj_cache.create ~build ())
        and build ~label ~start =
          if start = 0 then build_traj ~label ~start
          else begin
            incr (Domain.DLS.get images_built);
            Rv_sim.Traj.image (Sym.from_zero s start)
              (Rv_sim.Traj_cache.get (Lazy.force sym_cache) ~label ~start:0)
          end
        in
        let sym_cache = Lazy.force sym_cache in
        let autos = Sym.automorphisms s in
        let walks = ref 0 in
        let certified =
          List.for_all
            (fun label ->
              let t0 = Rv_sim.Traj_cache.get sym_cache ~label ~start:0 in
              let ok = ref true and i = ref 1 in
              while !ok && !i < Array.length autos do
                let start = autos.(!i).(0) in
                incr walks;
                ok :=
                  Rv_sim.Traj.same_ports walk_obs ~start (blocks_of ~label ~start) t0;
                incr i
              done;
              !ok)
            labels
        in
        ignore (Atomic.fetch_and_add Stats.certify_walks !walks);
        if certified then begin
          Atomic.set Stats.sym_group (Sym.group_name s);
          Atomic.set Stats.orbit (Sym.orbit_size s);
          Some (s, sym_cache)
        end
        else begin
          Atomic.set Stats.sym_group (Sym.group_name s ^ "/uncertified");
          Atomic.set Stats.orbit 1;
          None
        end
      end
  in
  if not sym_wanted then begin
    Atomic.set Stats.sym_group "off";
    Atomic.set Stats.orbit 1
  end;
  (* Representative cells per label pair: under a certified reduction the
     canonical pairs are exactly (0, c) for c in 1..n-1 (free transitive
     action), 1/orbit of the full ordered-pair space. *)
  let reps_per_pair =
    match symq with Some _ -> n - 1 | None -> List.length expand
  in
  (* `Auto is a size rule on the configurations actually evaluated.  It
     reads only the inputs, so the kernel split that --stats reports
     does too. *)
  let configs = List.length pairs * reps_per_pair * List.length delays in
  let use_fast =
    traj_allowed
    &&
    match dispatch with
    | `Fast -> true
    | `Reference -> false
    | `Auto -> configs >= small_sweep_configs
  in
  (* The reference path checks per run that both agents' explorers
     declare the same bound E (Rendezvous.run); replicate the check up
     front.  Each distinct start's bound is read once, so a position pair
     costs two lookups, not two explorer constructions. *)
  if use_fast then begin
    let bounds = Hashtbl.create 64 in
    let bound_at start =
      match Hashtbl.find_opt bounds start with
      | Some b -> b
      | None ->
          let b = (explorer ~start).Rv_explore.Explorer.bound in
          Hashtbl.add bounds start b;
          b
    in
    List.iter
      (fun (pa, pb) ->
        if bound_at pa <> bound_at pb then
          invalid_arg "Rendezvous.run: the two agents' explorers declare different bounds E")
      expand
  end;
  let cache =
    if not use_fast then None
    else
      match symq with
      | Some (_, sym_cache) -> Some sym_cache
      | None -> Some (Rv_sim.Traj_cache.create ~build:build_traj ())
  in
  (* Simulate one configuration; returns the outcome fields the sweep
     consumes.  All paths agree exactly (property-tested in
     test/test_traj.ml for both models, re-asserted at bench time and by
     CI's RV_NO_TRAJ / RV_NO_SYM byte comparisons). *)
  let simulate tally ~la ~lb ~pa ~pb ~da ~db =
    match cache with
    | Some cache ->
        if la = lb then invalid_arg "Rendezvous.run: labels must be distinct";
        let ta = Rv_sim.Traj_cache.get cache ~label:la ~start:pa in
        let tb = Rv_sim.Traj_cache.get cache ~label:lb ~start:pb in
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
              Rv_sim.Traj.meet_intervals ~a:ta ~b:tb ~delay_a:da ~delay_b:db
                ~max_rounds
        in
        (m.Rv_sim.Traj.meeting_round, m.Rv_sim.Traj.cost, m.Rv_sim.Traj.rounds_run)
    | None ->
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
  (* Replay one label pair's configuration stream against an outcome
     lookup, in the exact order the unreduced sweep visits it (positions
     outer, delays inner, lazily stopped by the first failure), emitting
     records and folding the worst cell.  The unreduced path passes the
     live simulator as [outcome_of]; the reduced path passes the
     representative table — the byte stream is identical either way
     because every outcome field is orbit-invariant and the failure
     message embeds the {e actual} starts. *)
  let replay ~la ~lb ~outcome_of =
    let worst_t = ref 0 and worst_c = ref 0 in
    let failure = ref None in
    let recorded = ref [] in
    let covered = ref 0 in
    List.iter
      (fun (pa, pb) ->
        Array.iteri
          (fun d (da, db) ->
            if Option.is_none !failure then begin
              let meeting_round, cost, rounds_run = outcome_of ~pa ~pb ~d ~da ~db in
              incr covered;
              (match sink with
              | None -> ()
              | Some _ ->
                  let met = Option.is_some meeting_round in
                  recorded :=
                    {
                      Rv_engine.Record.graph = graph_spec;
                      algorithm = algo_name;
                      label_a = la;
                      label_b = lb;
                      start_a = pa;
                      start_b = pb;
                      delay_a = da;
                      delay_b = db;
                      met;
                      time = (match meeting_round with Some t -> t | None -> rounds_run);
                      cost;
                    }
                    :: !recorded);
              match meeting_round with
              | Some t ->
                  worst_t := max !worst_t t;
                  worst_c := max !worst_c cost;
                  Option.iter (fun p -> Progress.observe p ~time:t ~cost) progress
              | None ->
                  failure :=
                    Some
                      (Printf.sprintf
                         "%s: no rendezvous (labels %d/%d, starts %d/%d, delays %d/%d)"
                         algo_name la lb pa pb da db)
            end)
          delay_arr)
      expand;
    Option.iter Progress.tick progress;
    ignore (Atomic.fetch_and_add Stats.covered !covered);
    let result =
      match !failure with None -> Ok (!worst_t, !worst_c) | Some e -> Error e
    in
    (result, List.rev !recorded)
  in
  let merge outcomes =
    Array.fold_left
      (fun acc (result, recorded) ->
        Option.iter (fun s -> List.iter (Sink.emit s) recorded) sink;
        match (acc, result) with
        | Error _, _ -> acc
        | Ok _, Error e -> Error e
        | Ok (at, ac), Ok (t, c) -> Ok (max at t, max ac c))
      (Ok (0, 0)) outcomes
  in
  match symq with
  | None ->
      (* One task per label pair.  A task touches nothing shared: graphs
         are immutable, explorer state is created fresh per simulation
         (and the trajectory cache is domain-local), and the task's
         records are buffered locally and emitted by the caller during
         the in-order merge — so the sink's byte stream is identical for
         any pool size. *)
      let run_pair (la, lb) =
        if obs then
          Rv_obs.Obs.begin_span ~cat:"workload"
            ~args:[ ("la", Rv_obs.Json.Int la); ("lb", Rv_obs.Json.Int lb) ]
            "workload.pair";
        let tally = { ref_c = 0; traj_c = 0; intv_c = 0 } in
        let r =
          replay ~la ~lb ~outcome_of:(fun ~pa ~pb ~d:_ ~da ~db ->
              simulate tally ~la ~lb ~pa ~pb ~da ~db)
        in
        flush_tally tally;
        if obs then begin
          Rv_obs.Counter.count "workload.pairs" 1;
          Rv_obs.Obs.end_span ()
        end;
        r
      in
      merge
        (Engine_sweep.map_array ?pool ~chunk:1 (Array.length pair_arr) (fun i ->
             run_pair pair_arr.(i)))
  | Some (s, _) ->
      (* Orbit-reduced sweep: simulate only the canonical representatives
         (0, c) — 1/orbit of the pair space — then replay the full space
         through the representative table.  Representative cells are
         computed eagerly (a pair whose replay fails early may therefore
         simulate cells the lazy unreduced sweep would have skipped —
         invisible in the output, which stops at the failure exactly like
         the unreduced stream), and split into deterministic subtasks so
         the pool balances inside a pair (Sweep.map_nested: the subtask
         space depends only on the cell counts, never on the pool).

         With no sink, and every representative met, nothing observes the
         stream itself: each configuration's outcome is a table entry and
         each entry is some configuration's (every (0, c) is in the space),
         so the worst cell is the table's, coverage is the full count, and
         Progress — which only keeps maxima, ticked once per pair — sees
         the same values folded straight from the table.  A failing pair
         still replays, so its message names the actual first failure. *)
      let reps = n - 1 in
      let nd = Array.length delay_arr in
      let chunks_per_pair = min 8 reps in
      let base = reps / chunks_per_pair and extra = reps mod chunks_per_pair in
      let chunk_lo j = (j * base) + min j extra in
      let counts = Array.make (Array.length pair_arr) chunks_per_pair in
      let configs_per_pair = List.length expand * nd in
      let run_chunk o j =
        let la, lb = pair_arr.(o) in
        if obs then
          Rv_obs.Obs.begin_span ~cat:"workload"
            ~args:[ ("la", Rv_obs.Json.Int la); ("lb", Rv_obs.Json.Int lb) ]
            "workload.rep_chunk";
        let tally = { ref_c = 0; traj_c = 0; intv_c = 0 } in
        let lo = chunk_lo j and hi = chunk_lo (j + 1) in
        let out = Array.make ((hi - lo) * nd) (None, 0, 0) in
        for i = lo to hi - 1 do
          let pb = i + 1 in
          for d = 0 to nd - 1 do
            let da, db = delay_arr.(d) in
            out.(((i - lo) * nd) + d) <- simulate tally ~la ~lb ~pa:0 ~pb ~da ~db
          done
        done;
        flush_tally tally;
        if obs then Rv_obs.Obs.end_span ();
        out
      in
      let chunked = Engine_sweep.map_nested ?pool ~chunk:1 counts run_chunk in
      merge
        (Array.mapi
           (fun o per_chunk ->
             let la, lb = pair_arr.(o) in
             let table = Array.concat (Array.to_list per_chunk) in
             let all_met =
               Array.for_all (fun (meeting_round, _, _) -> Option.is_some meeting_round)
                 table
             in
             let r =
               if Option.is_none sink && all_met then begin
                 let worst_t = ref 0 and worst_c = ref 0 in
                 Array.iter
                   (fun (meeting_round, cost, _) ->
                     worst_t := max !worst_t (Option.value meeting_round ~default:0);
                     worst_c := max !worst_c cost)
                   table;
                 Option.iter
                   (fun p ->
                     Progress.observe p ~time:!worst_t ~cost:!worst_c;
                     Progress.tick p)
                   progress;
                 ignore (Atomic.fetch_and_add Stats.covered configs_per_pair);
                 (Ok (!worst_t, !worst_c), [])
               end
               else
                 (* table.((c - 1) * nd + d) is the outcome of representative
                    (0, c) under delay d; canon_pair maps any (pa, pb) to its
                    representative in O(1). *)
                 replay ~la ~lb ~outcome_of:(fun ~pa ~pb ~d ~da:_ ~db:_ ->
                     let _, c = Sym.canon_pair s pa pb in
                     table.(((c - 1) * nd) + d))
             in
             if obs then Rv_obs.Counter.count "workload.pairs" 1;
             r)
           chunked)

let ring_delays ~e =
  let ds = List.sort_uniq Int.compare [ 0; 1; e / 2; e; e + 1 ] in
  List.map (fun d -> (0, d)) ds @ List.filter_map (fun d -> if d > 0 then Some (d, 0) else None) ds

let e_of explorer = (explorer ~start:0).Rv_explore.Explorer.bound

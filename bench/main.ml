(* rv_lint: allow-file R1 -- a wall-clock benchmark harness times kernels by design;
   the results it asserts never depend on these readings *)

(* The benchmark harness: each section times one part of the system and
   writes its figures to a BENCH_*.json file (sweep, obs, traj, serve,
   index).  `main.exe SECTION` runs one section; no argument runs all
   five.  The experiment tables themselves are deterministic counts and
   come from `rv exp --all`, not from here. *)

(* Rep/warmup counts for the hand-rolled timing loops, overridable from
   the environment so CI can cheapen a smoke run (RV_BENCH_REPS=1) or a
   quiet machine can tighten the minimum (RV_BENCH_REPS=10). *)
let bench_reps ~default =
  match Sys.getenv_opt "RV_BENCH_REPS" with
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some v when v >= 1 -> v
    | Some _ | None -> default)
  | None -> default

let bench_warmup ~default =
  match Sys.getenv_opt "RV_BENCH_WARMUP" with
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some v when v >= 0 -> v
    | Some _ | None -> default)
  | None -> default

(* Sweep kernel: the full ordered position-pair space of a ring (the
   symmetry quotient's home turf — n rotations collapse the n(n-1)
   ordered pairs to the n-1 representatives (0, c)), swept reduced by
   default and once unreduced (RV_NO_SYM path) to assert the worst cell
   is identical.  The reduced sweep is also run through the domain pool
   at 1/2/4/8 domains with the result asserted identical at every pool
   size — the engine's determinism guarantee, re-checked on every bench
   run.  The pool sizes are timed round-robin, one sweep each per round,
   so a slow stretch of the machine hits every row alike, and each row
   reports its minimum over the rounds.  The numbers land in
   BENCH_sweep.json so the perf trajectory is machine-readable. *)

let sweep_speedup () =
  let module W = Rv_experiments.Workload in
  let n = 128 and space = 128 and max_pairs = 32 in
  let g = Rv_graph.Ring.oriented n in
  let explorer ~start:_ = Rv_explore.Ring_walk.clockwise ~n in
  let pairs = W.sample_pairs ~space ~max_pairs in
  let delays = [ (0, 0); (0, 1); (0, 8); (1, 0); (8, 0) ] in
  let run ?pool ~sym () =
    match
      W.worst_for ?pool ~sym ~g ~algorithm:Rv_core.Rendezvous.Fast ~space
        ~explorer ~pairs ~positions:`All_pairs ~delays ()
    with
    | Ok tc -> tc
    | Error msg -> failwith ("sweep kernel: " ^ msg)
  in
  let timed ?(sym = true) jobs =
    let go pool =
      let t0 = Unix.gettimeofday () in
      let r = run ?pool ~sym () in
      (r, Unix.gettimeofday () -. t0)
    in
    if jobs <= 1 then go None
    else Rv_engine.Pool.with_pool ~jobs (fun pool -> go (Some pool))
  in
  (* On a single-core container the 2/4/8-domain rows are pure scheduler
     overhead and the speedup table degenerates to noise around 1.0x;
     skip them with a note rather than publish a misleading table.  The
     JSON records the core count so readers can tell the two cases apart. *)
  let cores = Domain.recommended_domain_count () in
  let multicore_skipped = cores <= 1 in
  let jobs_list = if multicore_skipped then [ 1 ] else [ 1; 2; 4; 8 ] in
  let reps = bench_reps ~default:5 in
  (* One untimed sequential sweep first: its result is the reference
     every timed sweep must reproduce, and the counters are snapshot
     after it alone, so the JSON reports per-sweep counts. *)
  W.Stats.reset ();
  Rv_sim.Traj_cache.reset_stats ();
  let reference = run ~sym:true () in
  let stats = W.Stats.snapshot () in
  let cache = Rv_sim.Traj_cache.stats () in
  let best = Array.make (List.length jobs_list) infinity in
  for _ = 1 to reps do
    List.iteri
      (fun i jobs ->
        let r, seconds = timed jobs in
        if r <> reference then
          failwith (Printf.sprintf "sweep kernel: jobs=%d diverged from sequential" jobs);
        best.(i) <- Float.min best.(i) seconds)
      jobs_list
  done;
  let runs = List.mapi (fun i jobs -> (jobs, best.(i))) jobs_list in
  let baseline = best.(0) in
  (* The acceptance assertion: the unreduced sweep (every ordered pair
     simulated) must land on the identical worst cell.  One run, not
     timed to a minimum — it exists to be compared against, and its
     wall-clock is reported for the record. *)
  let unreduced, unreduced_seconds = timed ~sym:false 1 in
  if unreduced <> reference then
    failwith "sweep kernel: reduced sweep diverged from RV_NO_SYM reference";
  let worst_t, worst_c = reference in
  let position_pairs = n * (n - 1) in
  let representatives = n - 1 in
  let covered = List.length pairs * position_pairs * List.length delays in
  Rv_util.Table.print
    (Rv_util.Table.make
       ~title:
         (Printf.sprintf
            "rv_engine speedup: sweep kernel (ring n=%d, fast, L=%d, %d configs covered)"
            n space covered)
       ~headers:[ "domains"; "seconds"; "speedup" ]
       ~notes:
         ([
            Printf.sprintf
              "Worst time %d, worst cost %d -- asserted identical at every pool size \
               and vs the unreduced (RV_NO_SYM) sweep (%.3fs)."
              worst_t worst_c unreduced_seconds;
            Printf.sprintf
              "Symmetry %s: %d of %d ordered position pairs simulated per label pair \
               (x%d coverage)."
              stats.W.Stats.sym_group representatives position_pairs
              stats.W.Stats.orbit_size;
            Printf.sprintf "Domain.recommended_domain_count = %d on this machine." cores;
            Printf.sprintf
              "Seconds: minimum of %d rounds, each timing every pool size once in turn." reps;
          ]
         @
         if multicore_skipped then
           [ "Single core available: multicore rows skipped (no speedup to measure)." ]
         else [])
       (List.map
          (fun (jobs, seconds) ->
            [
              string_of_int jobs;
              Printf.sprintf "%.3f" seconds;
              Printf.sprintf "%.2fx" (baseline /. seconds);
            ])
          runs));
  let oc = open_out "BENCH_sweep.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "rv_engine sweep kernel (symmetry-reduced)",
  "kernel": {
    "graph": "ring:%d",
    "algorithm": "fast",
    "space": %d,
    "label_pairs": %d,
    "position_pairs": %d,
    "delay_pairs": %d,
    "configs_covered": %d
  },
  "reduction": {
    "sym_group": "%s",
    "orbit_size": %d,
    "representatives_per_label_pair": %d,
    "pair_fraction": %.6f,
    "meets_quarter_criterion": %b,
    "covered_configs": %d,
    "simulated_configs": %d,
    "cells_reference": %d,
    "cells_traj": %d,
    "cells_intervals": %d,
    "certify_executions": %d,
    "image_trajectories": %d,
    "cache_hits": %d,
    "cache_misses": %d,
    "worst_identical_vs_unreduced": true,
    "unreduced_seconds": %.4f
  },
  "recommended_domain_count": %d,
  "cores": %d,
  "multicore_skipped": %b,
  "reps": %d,
  "worst": {"time": %d, "cost": %d},
  "runs": [%s]
}
|}
    n space (List.length pairs) position_pairs (List.length delays) covered
    stats.W.Stats.sym_group stats.W.Stats.orbit_size representatives
    (float_of_int representatives /. float_of_int position_pairs)
    (representatives * 4 <= position_pairs)
    stats.W.Stats.covered stats.W.Stats.simulated stats.W.Stats.reference_cells
    stats.W.Stats.traj_cells stats.W.Stats.interval_cells stats.W.Stats.certify_executions
    stats.W.Stats.image_trajs cache.Rv_sim.Traj_cache.hits
    cache.Rv_sim.Traj_cache.misses unreduced_seconds
    cores cores multicore_skipped reps
    worst_t worst_c
    (String.concat ", "
       (List.map
          (fun (jobs, seconds) ->
            Printf.sprintf {|{"jobs": %d, "seconds": %.4f, "speedup": %.2f}|} jobs
              seconds (baseline /. seconds))
          runs));
  close_out oc;
  print_endline "wrote BENCH_sweep.json"

(* Instrumentation overhead: one sweep kernel timed three ways — rv_obs
   disabled, disabled again (the spread between the two disabled sets is
   the run-to-run noise floor), and enabled.  Min-of-N per set filters
   scheduler hiccups.  The claim under test is the no-op fast path: with
   instrumentation off, the hooks compiled into every layer must cost
   nothing measurable, so the disabled/disabled delta stays within the
   noise threshold.  Numbers land in BENCH_obs.json.

   The serve tier gets its own row with the same A/B/enabled structure:
   the cached fast path driven over the wire against telemetry-off
   servers twice (their spread is the over-the-wire noise floor — the
   "hooks off cost nothing" claim at the serve tier) and a telemetry-on
   server, interleaved per round and min-of-reps.  Telemetry must never
   change reply bytes — the transcripts are asserted identical before
   the timing is believed.  The enabled delta is the true cost of
   always-on tracing per cached hit (a few hundred ns of clock reads,
   window atomics and the recorder ring) expressed against the
   cheapest request the server can serve, i.e. its worst case; on
   compute-bound queries the same absolute cost vanishes.  A loaded
   single-core CI container jitters far more than an in-process kernel,
   so the JSON records the verdict for trend-watching rather than
   hard-failing a noisy run. *)

let obs_serve_overhead () =
  let module Server = Rv_serve.Server in
  let module Loadgen = Rv_serve.Loadgen in
  let drive ~telemetry =
    let server =
      Server.start { Server.default_config with jobs = 1; telemetry }
    in
    Fun.protect
      ~finally:(fun () -> Server.stop server)
      (fun () ->
        let port = Server.port server in
        (match
           Loadgen.run ~port ~conns:1 ~requests:64 ~seed:7 ~mix:Loadgen.Cached ()
         with
        | Ok _ -> () (* warm the result cache *)
        | Error e -> failwith ("serve overhead warmup: " ^ e));
        match
          Loadgen.run ~port ~conns:2 ~requests:4000 ~seed:7 ~mix:Loadgen.Cached ()
        with
        | Ok s -> s
        | Error e -> failwith ("serve overhead loadgen: " ^ e))
  in
  let reps = 7 in
  let off_a = ref infinity and off_b = ref infinity and on = ref infinity in
  let t_off = ref [] and t_on = ref [] in
  (* Off A, off B, on, in the rotating order of [obs_overhead]'s rounds. *)
  let sets = [| (off_a, t_off, false); (off_b, t_off, false); (on, t_on, true) |] in
  for round = 0 to reps - 1 do
    for i = 0 to 2 do
      let best, transcript, telemetry = sets.((round + i) mod 3) in
      let s = drive ~telemetry in
      best := min !best s.Loadgen.elapsed_s;
      transcript := s.Loadgen.transcript
    done
  done;
  if not (List.equal String.equal !t_on !t_off) then
    failwith "serve overhead: telemetry on/off transcripts differ";
  (!off_a, !off_b, !on, List.length !t_on)

let obs_overhead () =
  let n = 64 and space = 64 and max_pairs = 16 in
  let g = Rv_graph.Ring.oriented n in
  let explorer ~start:_ = Rv_explore.Ring_walk.clockwise ~n in
  let pairs = Rv_experiments.Workload.sample_pairs ~space ~max_pairs in
  let delays = [ (0, 0); (0, 1); (1, 0) ] in
  let kernel () =
    match
      Rv_experiments.Workload.worst_for ~g ~algorithm:Rv_core.Rendezvous.Fast ~space
        ~explorer ~pairs ~positions:`Fixed_first ~delays ()
    with
    | Ok _ -> ()
    | Error msg -> failwith ("obs kernel: " ^ msg)
  in
  let timed enabled =
    Rv_obs.Obs.set_enabled enabled;
    (* Fresh collectors each rep so the enabled sets never hit the
       event-buffer cap and every rep does identical work. *)
    Rv_obs.Obs.reset ();
    Rv_obs.Counter.reset ();
    Rv_obs.Histogram.reset ();
    let t0 = Unix.gettimeofday () in
    kernel ();
    Unix.gettimeofday () -. t0
  in
  (* The three modes are interleaved within each round so slow drift —
     GC state, frequency scaling, a noisy neighbour on the container —
     hits all three equally instead of biasing whichever block ran first;
     min-of-rounds then filters the transient spikes.  Each round starts
     one set later (A B E, B E A, E A B, ...): in a fixed order set A
     always ran right after an enabled rep, and it was the slow disabled
     set in 3 of 4 recorded > 10% divergences. *)
  let reps = 9 in
  let disabled_a = ref infinity and disabled_b = ref infinity in
  let enabled = ref infinity in
  ignore (timed false) (* warmup *);
  let sets = [| (disabled_a, false); (disabled_b, false); (enabled, true) |] in
  for round = 0 to reps - 1 do
    for i = 0 to 2 do
      let best, on = sets.((round + i) mod 3) in
      best := min !best (timed on)
    done
  done;
  let disabled_a = !disabled_a and disabled_b = !disabled_b and enabled = !enabled in
  Rv_obs.Obs.set_enabled false;
  Rv_obs.Obs.reset ();
  Rv_obs.Counter.reset ();
  Rv_obs.Histogram.reset ();
  let base = min disabled_a disabled_b in
  let disabled_delta_pct = abs_float (disabled_a -. disabled_b) /. base *. 100. in
  let enabled_overhead_pct = (enabled -. base) /. base *. 100. in
  let threshold_pct = 2.0 in
  let within_noise = disabled_delta_pct < threshold_pct in
  let configs = List.length pairs * (n - 1) * List.length delays in
  Rv_util.Table.print
    (Rv_util.Table.make
       ~title:
         (Printf.sprintf "rv_obs overhead: sweep kernel (ring n=%d, fast, %d configs)" n
            configs)
       ~headers:[ "mode"; Printf.sprintf "seconds (min of %d)" reps; "vs disabled" ]
       ~notes:
         [
           Printf.sprintf
             "Disabled/disabled spread %.2f%% = noise floor (threshold %.1f%%): %s."
             disabled_delta_pct threshold_pct
             (if within_noise then "disabled hooks are free" else "NOISY RUN");
         ]
       [
         [ "disabled (set A)"; Printf.sprintf "%.4f" disabled_a; "-" ];
         [
           "disabled (set B)";
           Printf.sprintf "%.4f" disabled_b;
           Printf.sprintf "%+.2f%%" disabled_delta_pct;
         ];
         [
           "enabled";
           Printf.sprintf "%.4f" enabled;
           Printf.sprintf "%+.2f%%" enabled_overhead_pct;
         ];
       ]);
  let srv_off_a, srv_off_b, srv_on, srv_requests = obs_serve_overhead () in
  let srv_reps = 7 in
  let srv_base = min srv_off_a srv_off_b in
  let srv_off_delta_pct =
    abs_float (srv_off_a -. srv_off_b) /. srv_base *. 100.
  in
  let srv_overhead_pct = (srv_on -. srv_base) /. srv_base *. 100. in
  let srv_within_noise = srv_off_delta_pct < threshold_pct in
  let srv_on_per_req_ns =
    (srv_on -. srv_base) /. float_of_int srv_requests *. 1e9
  in
  Printf.printf
    "serve telemetry: off %.3fs/%.3fs (spread %.2f%%, threshold %.1f%%: %s), \
     on %.3fs = %+.2f%% (%+.0fns per cached hit) over %d requests; \
     transcripts identical\n"
    srv_off_a srv_off_b srv_off_delta_pct threshold_pct
    (if srv_within_noise then "off hooks are free" else "NOISY RUN")
    srv_on srv_overhead_pct srv_on_per_req_ns srv_requests;
  let oc = open_out "BENCH_obs.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "rv_obs instrumentation overhead",
  "kernel": {"graph": "ring:%d", "algorithm": "fast", "space": %d, "configs": %d},
  "reps_per_set": %d,
  "disabled_a_seconds": %.4f,
  "disabled_b_seconds": %.4f,
  "enabled_seconds": %.4f,
  "disabled_delta_pct": %.2f,
  "enabled_overhead_pct": %.2f,
  "threshold_pct": %.1f,
  "within_noise": %b,
  "serve": {
    "workload": "cached mix over loopback, 2 conns, min of reps",
    "requests": %d,
    "reps": %d,
    "telemetry_off_a_seconds": %.4f,
    "telemetry_off_b_seconds": %.4f,
    "telemetry_on_seconds": %.4f,
    "off_delta_pct": %.2f,
    "on_overhead_pct": %.2f,
    "on_overhead_ns_per_request": %.0f,
    "threshold_pct": %.1f,
    "within_noise": %b,
    "transcripts_identical_telemetry_on_off": true
  }
}
|}
    n space configs reps disabled_a disabled_b enabled disabled_delta_pct
    enabled_overhead_pct threshold_pct within_noise srv_requests srv_reps
    srv_off_a srv_off_b srv_on srv_off_delta_pct srv_overhead_pct
    srv_on_per_req_ns threshold_pct srv_within_noise;
  close_out oc;
  print_endline "wrote BENCH_obs.json";
  (* A wildly divergent disabled pair means the measurement itself is
     broken (e.g. the machine is thrashing) — fail loudly rather than
     record garbage. *)
  if disabled_delta_pct > 10. then
    failwith
      (Printf.sprintf "obs overhead: disabled sets diverge by %.1f%%" disabled_delta_pct)

(* Trajectory-path speedup under [`Auto]'s size rule: the experiment
   sweeps most exposed to re-simulation (EXP-A/B/C/E, plus a
   parachute-model table for the interval scan) timed at one domain —
   [~dispatch:`Reference] (always the round-by-round simulator) versus
   [~dispatch:`Auto] (the trajectory path from 128 configurations up,
   the reference simulator below) — with the full per-cell result lists
   asserted equal before any number is reported.  `Auto must never
   lose: EXP-A/C and EXP-PAR sweep 135 to 2070 configurations per cell
   and keep their multiples on the trajectory path; EXP-B (at most 45
   per cell) and EXP-E (15) sit below the floor, so both sides run the
   reference simulator and hold ~1.0x.  EXP-E is the table that keeps
   the floor: forced onto the trajectory path, its early-meeting cells
   run at 0.63-0.69x.  EXP-A at full table size remains the fast path's
   acceptance kernel (>= 3x wall-clock).  Each cell (one worst_for
   sweep) is timed individually, so the JSON records a per-table p50
   cell latency alongside the totals.  Reps come from RV_BENCH_REPS
   (default 5, min-of).  The numbers land in BENCH_traj.json; `main.exe
   traj` runs only this section, which is how CI publishes the artifact
   without running the other sections.  Speedups are
   sequential-vs-sequential, so unlike BENCH_sweep.json nothing
   degenerates on a single-core container; the JSON still records the
   core count for context. *)

let traj_speedup () =
  let module W = Rv_experiments.Workload in
  let module R = Rv_core.Rendezvous in
  let ring n = Rv_graph.Ring.oriented n in
  let clockwise n ~start:_ = Rv_explore.Ring_walk.clockwise ~n in
  let exp_a dispatch =
    let n = 24 in
    let g = ring n and explorer = clockwise n in
    let delays = W.ring_delays ~e:(n - 1) in
    List.concat_map
      (fun space ->
        let pairs = W.sample_pairs ~space ~max_pairs:10 in
        List.map
          (fun algorithm ->
            ( Printf.sprintf "%s/L%d" (R.name algorithm) space,
              fun () ->
                W.worst_for ~dispatch ~g ~algorithm ~space ~explorer ~pairs
                  ~positions:`Fixed_first ~delays () ))
          R.[ Cheap; Fast; Fwr 2; Fwr 3 ])
      [ 4; 16; 64 ]
  in
  let exp_b dispatch =
    let n = 16 in
    let g = ring n and explorer = clockwise n in
    List.map
      (fun space ->
        let pairs =
          List.filter (fun (a, b) -> a >= 1 && a < b)
            [ (space - 1, space); (1, space); (1, 2) ]
          |> List.sort_uniq Rv_util.Ord.(pair int int)
        in
        ( Printf.sprintf "L%d" space,
          fun () ->
            W.worst_for ~dispatch ~g ~algorithm:R.Cheap_simultaneous ~space
              ~explorer ~pairs ~positions:`Fixed_first ~delays:[ (0, 0) ] () ))
      [ 2; 4; 8; 16; 32; 64 ]
  in
  let exp_c dispatch =
    let n = 16 in
    let g = ring n and explorer = clockwise n in
    let delays = W.ring_delays ~e:(n - 1) in
    List.map
      (fun space ->
        let ones = W.all_ones_label ~space in
        let pairs =
          List.filter
            (fun (a, b) -> a >= 1 && a < b && b <= space)
            [ (ones / 2, ones); (ones, space); (space - 1, space); (1, 2); (1, space) ]
          |> List.sort_uniq Rv_util.Ord.(pair int int)
        in
        ( Printf.sprintf "L%d" space,
          fun () ->
            W.worst_for ~dispatch ~g ~algorithm:R.Fast ~space ~explorer ~pairs
              ~positions:`Fixed_first ~delays () ))
      [ 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]
  in
  let exp_e dispatch =
    let n = 16 in
    let g = ring n and explorer = clockwise n in
    let e = n - 1 in
    let taus =
      List.sort_uniq Int.compare
        [ 0; 1; e / 4; e / 2; 3 * e / 4; e; e + 1; 3 * e / 2; 2 * e; 3 * e ]
    in
    List.concat_map
      (fun tau ->
        List.map
          (fun algorithm ->
            ( Printf.sprintf "%s/tau%d" (R.name algorithm) tau,
              fun () ->
                W.worst_for ~dispatch ~g ~algorithm ~space:16 ~explorer
                  ~pairs:[ (3, 11) ] ~positions:`Fixed_first ~delays:[ (0, tau) ]
                  () ))
          R.[ Cheap; Fast ])
      taus
  in
  (* Parachute model: same walks, detection gated on both agents being
     placed — served by Traj.meet_intervals when dispatch picks the fast
     path.  Simultaneous and near-simultaneous starts, where the paper's
     waiting-model algorithms still meet under parachute placement. *)
  let exp_par dispatch =
    let n = 16 in
    let g = ring n and explorer = clockwise n in
    List.concat_map
      (fun space ->
        let pairs = W.sample_pairs ~space ~max_pairs:6 in
        List.map
          (fun algorithm ->
            ( Printf.sprintf "%s/L%d" (R.name algorithm) space,
              fun () ->
                W.worst_for ~model:Rv_sim.Sim.Parachute ~dispatch ~g ~algorithm
                  ~space ~explorer ~pairs ~positions:`Fixed_first
                  ~delays:[ (0, 0); (0, 1); (1, 0) ] () ))
          R.[ Cheap; Cheap_simultaneous; Fast ])
      [ 4; 16 ]
  in
  let reps = bench_reps ~default:5 in
  let warmup = bench_warmup ~default:1 in
  let median a =
    let a = Array.copy a in
    Array.sort Float.compare a;
    Rv_util.Stats.percentile a 0.5
  in
  (* Each cell (one worst_for sweep) is timed on its own inside every
     rep, with the `Auto and `Reference variants back-to-back (order
     alternating per rep) so scheduler bursts hit both sides of the
     ratio; the table totals are sums of per-cell minima — a much
     lower-variance estimator than min-of-rep-totals for the
     sub-millisecond tables, where jitter on any one cell would
     otherwise poison the whole rep. *)
  let timeboth kernel =
    let auto = Array.of_list (kernel `Auto) in
    let refr = Array.of_list (kernel `Reference) in
    let ncells = Array.length auto in
    let clock thunk =
      let t0 = Unix.gettimeofday () in
      ignore (thunk ());
      Unix.gettimeofday () -. t0
    in
    for _ = 1 to warmup do
      Array.iter (fun (_, thunk) -> ignore (thunk ())) auto;
      Array.iter (fun (_, thunk) -> ignore (thunk ())) refr
    done;
    let min_a = Array.make ncells infinity in
    let min_r = Array.make ncells infinity in
    for rep = 1 to reps do
      for i = 0 to ncells - 1 do
        let _, ta = auto.(i) and _, tr = refr.(i) in
        let da, dr =
          if rep land 1 = 0 then (clock ta, clock tr)
          else
            let dr = clock tr in
            (clock ta, dr)
        in
        if da < min_a.(i) then min_a.(i) <- da;
        if dr < min_r.(i) then min_r.(i) <- dr
      done
    done;
    let sum = Array.fold_left ( +. ) 0. in
    (sum min_r, sum min_a, median min_r, median min_a)
  in
  let measured =
    List.map
      (fun (name, kernel) ->
        (* Equivalence first: whatever `Auto dispatches to must reproduce
           the reference sweep cell for cell before its timing means
           anything. *)
        let results d = List.map (fun (cn, thunk) -> (cn, thunk ())) (kernel d) in
        let rf = results `Auto and rr = results `Reference in
        List.iter2
          (fun (cf, f) (cr, r) ->
            if cf <> cr || f <> r then
              failwith
                (Printf.sprintf "traj speedup: %s cell %s diverged from reference"
                   name cf))
          rf rr;
        let ref_s, auto_s, ref_p50, auto_p50 = timeboth kernel in
        (name, List.length rf, ref_s, auto_s, ref_p50, auto_p50))
      [
        ("EXP-A", exp_a); ("EXP-B", exp_b); ("EXP-C", exp_c); ("EXP-E", exp_e);
        ("EXP-PAR", exp_par);
      ]
  in
  let cores = Domain.recommended_domain_count () in
  Rv_util.Table.print
    (Rv_util.Table.make
       ~title:"Trajectory kernel: reference simulator vs `Auto (1 domain)"
       ~headers:
         [ "table"; "cells"; "reference s"; "auto s"; "speedup"; "p50 cell (auto)" ]
       ~notes:
         [
           Printf.sprintf
             "Min of %d runs each (RV_BENCH_REPS); per-cell results asserted \
              identical before timing."
             reps;
           "EXP-A at full table size is the acceptance kernel (target >= 3x);";
           "EXP-B and EXP-E sit below `Auto's 128-configuration floor (reference \
            path on both sides, ~1x);";
           "EXP-PAR sweeps the parachute model (Traj.meet_intervals when fast).";
         ]
       (List.map
          (fun (name, cells, ref_s, auto_s, _, auto_p50) ->
            [
              name;
              string_of_int cells;
              Printf.sprintf "%.4f" ref_s;
              Printf.sprintf "%.4f" auto_s;
              Printf.sprintf "%.2fx" (ref_s /. auto_s);
              Printf.sprintf "%.2fms" (auto_p50 *. 1e3);
            ])
          measured));
  let exp_a_speedup =
    match measured with
    | ("EXP-A", _, ref_s, auto_s, _, _) :: _ -> ref_s /. auto_s
    | _ -> 0.
  in
  let min_speedup =
    List.fold_left
      (fun acc (_, _, ref_s, auto_s, _, _) -> min acc (ref_s /. auto_s))
      infinity measured
  in
  let oc = open_out "BENCH_traj.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "trajectory kernel speedup (reference Sim.run vs `Auto)",
  "jobs": 1,
  "reps_per_measurement": %d,
  "recommended_domain_count": %d,
  "cores": %d,
  "equivalence_checked": true,
  "tables": [%s],
  "exp_a_speedup": %.2f,
  "exp_a_target": 3.0,
  "exp_a_meets_target": %b,
  "min_table_speedup": %.2f,
  "no_regression": %b
}
|}
    reps cores cores
    (String.concat ", "
       (List.map
          (fun (name, cells, ref_s, auto_s, ref_p50, auto_p50) ->
            Printf.sprintf
              {|{"table": "%s", "cells": %d, "reference_seconds": %.4f, "fast_seconds": %.4f, "speedup": %.2f, "p50_cell_reference_seconds": %.5f, "p50_cell_fast_seconds": %.5f}|}
              name cells ref_s auto_s (ref_s /. auto_s) ref_p50 auto_p50)
          measured))
    exp_a_speedup
    (exp_a_speedup >= 3.0)
    min_speedup
    (min_speedup >= 0.95);
  close_out oc;
  print_endline "wrote BENCH_traj.json"

(* --- rv_serve: determinism + cached throughput -------------------------

   Boots in-process servers on ephemeral loopback ports and drives them
   with the deterministic load harness.  Two assertions, then numbers:

   1. the sorted reply transcript for one seeded mixed workload is
      byte-identical across jobs=1, jobs=2 and cache-off (the serve
      determinism contract);
   2. the cached fast path sustains >= 1000 responses/sec on a single
      dispatcher (the ISSUE acceptance floor).

   Results land in BENCH_serve.json; `main.exe serve` runs only this. *)

let serve_bench () =
  let module Server = Rv_serve.Server in
  let module Loadgen = Rv_serve.Loadgen in
  print_endline "==================================================================";
  print_endline " rv_serve (byte-determinism + cached throughput)";
  print_endline "==================================================================";
  let drive ~jobs ~cache_bytes ~conns ~requests ~mix =
    let server =
      Server.start { Server.default_config with jobs; cache_bytes }
    in
    Fun.protect
      ~finally:(fun () -> Server.stop server)
      (fun () ->
        match
          Loadgen.run ~port:(Server.port server) ~conns ~requests ~seed:7 ~mix ()
        with
        | Ok s -> s
        | Error e -> failwith ("loadgen: " ^ e))
  in
  let mb = 8 * 1024 * 1024 in
  let mixed ~jobs ~cache_bytes =
    drive ~jobs ~cache_bytes ~conns:4 ~requests:200 ~mix:Loadgen.Mixed
  in
  let t_j1 = (mixed ~jobs:1 ~cache_bytes:mb).Loadgen.transcript in
  let t_j2 = (mixed ~jobs:2 ~cache_bytes:mb).Loadgen.transcript in
  let t_nc = (mixed ~jobs:1 ~cache_bytes:0).Loadgen.transcript in
  let identical_j = List.equal String.equal t_j1 t_j2 in
  let identical_c = List.equal String.equal t_j1 t_nc in
  if not identical_j then failwith "serve: -j1 and -j2 transcripts differ";
  if not identical_c then failwith "serve: cache on/off transcripts differ";
  Printf.printf "transcripts: -j1 == -j2 == cache-off over %d mixed requests\n"
    (List.length t_j1);
  (* Throughput: one warm pass to populate the cache, then the measured
     pass answers (almost) entirely from it. *)
  let throughput =
    let server = Server.start { Server.default_config with jobs = 1 } in
    Fun.protect
      ~finally:(fun () -> Server.stop server)
      (fun () ->
        let port = Server.port server in
        (match
           Loadgen.run ~port ~conns:1 ~requests:64 ~seed:7 ~mix:Loadgen.Cached ()
         with
        | Ok _ -> ()
        | Error e -> failwith ("loadgen warmup: " ^ e));
        match
          Loadgen.run ~port ~conns:2 ~requests:4000 ~seed:7 ~mix:Loadgen.Cached ()
        with
        | Ok s -> s
        | Error e -> failwith ("loadgen: " ^ e))
  in
  Printf.printf
    "cached: %d requests in %.3fs = %.0f rps (p50 %dus, p99 %dus, max %dus)\n"
    throughput.Loadgen.requests throughput.Loadgen.elapsed_s
    throughput.Loadgen.throughput_rps throughput.Loadgen.lat_p50_us
    throughput.Loadgen.lat_p99_us throughput.Loadgen.lat_max_us;
  let meets = throughput.Loadgen.throughput_rps >= 1000. in
  if not meets then
    Printf.printf "WARNING: below the 1000 rps acceptance floor\n";
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "rv_serve cached throughput and byte-determinism",
  "transcripts_identical_j1_j2": %b,
  "transcripts_identical_cache_on_off": %b,
  "cached": %s,
  "throughput_floor_rps": 1000,
  "meets_floor": %b
}
|}
    identical_j identical_c
    (Rv_obs.Json.to_string (Loadgen.summary_json throughput))
    meets;
  close_out oc;
  print_endline "wrote BENCH_serve.json"

(* --- rv_index: bake throughput + index-hit latency ---------------------

   Bakes the loadgen index-mix lattice to a temp file, then measures the
   two numbers the index subsystem exists for:

   1. index-hit latency — the full serve hit path (mmap binary search,
      record decode, field rendering, JSON line) timed in-process per
      lookup; the acceptance target is single-digit microseconds and
      >= 10x faster than the cached-LRU serve path it short-circuits;
   2. bake throughput — records/sec for the offline sweep+write, which
      bounds how large a lattice an overnight bake can cover.

   The LRU baseline is the over-the-wire p50 of the same request mix
   against a warmed index-less server: that is the latency a client
   actually stops paying per request when the index answers at the
   socket.  The transcript of the indexed server is asserted identical
   to the index-less one before any number is reported.  Results land in
   BENCH_index.json; `main.exe index` runs only this section. *)

let index_bench () =
  let module Server = Rv_serve.Server in
  let module Loadgen = Rv_serve.Loadgen in
  let module Handler = Rv_serve.Handler in
  let module Proto = Rv_serve.Proto in
  print_endline "==================================================================";
  print_endline " rv_index (bake throughput + index-hit latency)";
  print_endline "==================================================================";
  let lattice =
    match
      Rv_index.Lattice.of_args ~graphs:Loadgen.index_mix_graphs
        ~algorithms:Loadgen.index_mix_algorithms ~spaces:Loadgen.index_mix_spaces
        ~pairs:Loadgen.index_mix_pairs ~max_delays:Loadgen.index_mix_max_delays
        ~run_labels:"1:2,3:5,2:7" ()
    with
    | Ok l -> l
    | Error e -> failwith ("index bench lattice: " ^ e)
  in
  let cells = Rv_index.Lattice.cells lattice in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rv_bench_index_%d.rvi" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* 1. bake: evaluate every cell and write, timed end to end. *)
  let t0 = Unix.gettimeofday () in
  let entries =
    List.map
      (fun q ->
        match Handler.eval_vals ~deadline_us:None q with
        | Ok v -> (Rv_index.Key.render q, Handler.values_of_vals v)
        | Error (_, msg, _) -> failwith ("index bench bake: " ^ msg))
      cells
  in
  let records =
    match
      Rv_index.Writer.write ~path ~generation:1
        ~meta:(Rv_index.Lattice.describe lattice) entries
    with
    | Ok n -> n
    | Error e -> failwith ("index bench write: " ^ e)
  in
  let bake_s = Unix.gettimeofday () -. t0 in
  let bake_rps = float_of_int records /. bake_s in
  Printf.printf "bake: %d records in %.3fs = %.0f records/s\n" records bake_s
    bake_rps;
  (* 2. index-hit latency: the full hit path per lookup, min of reps to
     filter scheduler noise (allocation cost is part of the path, so the
     measured loop still allocates every reply line). *)
  let reader =
    match Rv_index.Reader.open_ path with
    | Ok t -> t
    | Error e -> failwith ("index bench open: " ^ e)
  in
  (* Cycle exactly the cells the loadgen Index mix requests (the worst
     cells), so the per-lookup number faces the same workload as the
     over-the-wire baseline below. *)
  let queries =
    Array.of_list
      (List.filter_map
         (fun q ->
           match q with
           | Rv_index.Key.Worst _ -> Some (q, Rv_index.Key.render q)
           | Rv_index.Key.Run _ -> None)
         cells)
  in
  let lookups = 50_000 in
  let hit_path k =
    let q, key = queries.(k mod Array.length queries) in
    match Rv_index.Reader.lookup reader key with
    | None -> failwith "index bench: baked key missing"
    | Some values -> (
        match Handler.vals_of_values q values with
        | None -> failwith "index bench: record failed to decode"
        | Some v ->
            Proto.ok_line ~id:(Some k) (Handler.fields_of_vals q v))
  in
  let sink = ref 0 in
  let time_hits () =
    let t0 = Unix.gettimeofday () in
    for k = 0 to lookups - 1 do
      sink := !sink + String.length (hit_path k)
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int lookups *. 1e6
  in
  ignore (time_hits ()) (* warmup *);
  let reps = 5 in
  let hit_us = ref infinity in
  for _ = 1 to reps do
    hit_us := min !hit_us (time_hits ())
  done;
  let hit_us = !hit_us in
  Printf.printf "index hit: %.2fus per lookup (full path, min of %d x %d)\n"
    hit_us reps lookups;
  (* 3. LRU baseline + transcript identity: the same index-mix traffic
     over the wire, with and without the index. *)
  let drive ?index_path () =
    let server =
      Server.start { Server.default_config with index_path }
    in
    Fun.protect
      ~finally:(fun () -> Server.stop server)
      (fun () ->
        let port = Server.port server in
        (match
           Loadgen.run ~port ~conns:1 ~requests:32 ~seed:7 ~mix:Loadgen.Index ()
         with
        | Ok _ -> () (* warm the LRU / fault the mapping in *)
        | Error e -> failwith ("index bench warmup: " ^ e));
        match
          Loadgen.run ~port ~conns:2 ~requests:2000 ~seed:7 ~mix:Loadgen.Index ()
        with
        | Ok s -> s
        | Error e -> failwith ("index bench loadgen: " ^ e))
  in
  let lru = drive () in
  let indexed = drive ~index_path:path () in
  let identical =
    List.equal String.equal lru.Loadgen.transcript indexed.Loadgen.transcript
  in
  if not identical then failwith "index bench: indexed transcript diverged";
  Printf.printf "transcripts: index on == index off over %d requests\n"
    (List.length lru.Loadgen.transcript);
  let lru_p50 = lru.Loadgen.lat_p50_us in
  let speedup = float_of_int lru_p50 /. hit_us in
  Printf.printf
    "LRU-serve p50 %dus vs index hit %.2fus = %.1fx (floor 10x, single-digit us target: %s)\n"
    lru_p50 hit_us speedup
    (if hit_us < 10. then "met" else "MISSED");
  let meets = speedup >= 10. in
  if not meets then Printf.printf "WARNING: below the 10x acceptance floor\n";
  let oc = open_out "BENCH_index.json" in
  Printf.fprintf oc
    {|{
  "benchmark": "rv_index bake throughput and index-hit latency",
  "bake": {"records": %d, "seconds": %.4f, "records_per_s": %.0f},
  "index_hit": {"lookups": %d, "reps": %d, "us_per_lookup": %.3f, "single_digit_us": %b},
  "lru_baseline": {"requests": %d, "p50_us": %d, "p99_us": %d, "throughput_rps": %.0f},
  "indexed": {"requests": %d, "p50_us": %d, "p99_us": %d, "throughput_rps": %.0f},
  "transcripts_identical_index_on_off": %b,
  "speedup_vs_lru_p50": %.1f,
  "speedup_floor": 10.0,
  "meets_floor": %b
}
|}
    records bake_s bake_rps lookups reps hit_us (hit_us < 10.)
    lru.Loadgen.requests lru_p50 lru.Loadgen.lat_p99_us
    lru.Loadgen.throughput_rps indexed.Loadgen.requests
    indexed.Loadgen.lat_p50_us indexed.Loadgen.lat_p99_us
    indexed.Loadgen.throughput_rps identical speedup meets;
  close_out oc;
  ignore !sink;
  print_endline "wrote BENCH_index.json"

let () =
  match Sys.argv with
  | [| _; "traj" |] -> traj_speedup ()
  | [| _; "sweep" |] -> sweep_speedup ()
  | [| _; "obs" |] -> obs_overhead ()
  | [| _; "serve" |] -> serve_bench ()
  | [| _; "index" |] -> index_bench ()
  | _ ->
      sweep_speedup ();
      print_newline ();
      obs_overhead ();
      print_newline ();
      traj_speedup ();
      print_newline ();
      serve_bench ();
      print_newline ();
      index_bench ()

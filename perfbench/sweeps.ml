(* sweep-ring and sweep-stream: [Workload.worst_for] over all ordered start
   pairs, Fast, delays {(0,0),(0,1),(0,8),(1,0),(8,0)}, one domain. *)

module W = Rv_experiments.Workload
module Spec = Rv_experiments.Spec
module R = Rv_core.Rendezvous
module Sink = Rv_engine.Sink
module Record = Rv_engine.Record
module Obs = Rv_obs.Obs
open Measure

type cfg = { workload : string; graph : string; space : int; n_pairs : int; jsonl : bool }

let ring = { workload = "sweep-ring"; graph = "ring:128"; space = 128; n_pairs = 32; jsonl = false }

let stream =
  { workload = "sweep-stream"; graph = "torus:8x8"; space = 32; n_pairs = 16; jsonl = true }

(* Recorded once with [--record-reference] on the unreduced reference
   path (~sym:false ~dispatch:`Reference) for sweep 0 of the default
   seed: the worst (time, cost) and the MD5 of the JSONL stream. *)
let reference = function
  | "sweep-ring" -> ((3302, 5461), None)
  | _ -> ((1134, 1197), Some "69e0c1a97188d4fdcb87c8e652c3cd09")

let default_seed = 1

(* Setup samples per run: [setup_samples - 1] fresh child processes, then
   this process's own first sweep.  Each is also a heap sample: the peak
   of a process that has run one sweep, what a one-shot `rv sweep -j 1`
   needs.  (A long-running process's peak grows with the number of sweeps
   it has run, which depends on the machine's speed, and it spread 27%
   over ten runs; a one-sweep peak is a function of the seed.) *)
let setup_samples = 3

type env = { cfg : cfg; seed : int; dir : string; gs : Spec.graph; explorer : start:int -> Rv_explore.Explorer.t }

let env cfg ~seed ~dir =
  let gs = ok_or_die cfg.graph (Spec.parse_graph cfg.graph) in
  let explorer = ok_or_die "explorer" (Spec.parse_explorer gs "auto") in
  { cfg; seed; dir; gs; explorer }

type sweep = {
  index : int;
  pairs : (int * int) list;
  result : (int * int, string) result;
  covered : int;
  secs : float;
  jsonl_path : string option;
}

let n_nodes e = Rv_graph.Port_graph.n e.gs.Spec.g

let run_sweep ?(sym = true) ?(dispatch = `Auto) ?jsonl_path e ~index =
  let pairs =
    Gen.sweep_pairs ~workload:e.cfg.workload ~seed:e.seed ~sweep:index ~space:e.cfg.space
      ~n:e.cfg.n_pairs
  in
  let jsonl_path =
    if not e.cfg.jsonl then None
    else Some (Option.value jsonl_path ~default:(Filename.concat e.dir "sweep.jsonl"))
  in
  let before = (W.Stats.snapshot ()).W.Stats.covered in
  let t0 = now () in
  let oc = Option.map open_out_bin jsonl_path in
  let sink = Option.map Sink.jsonl oc in
  let result =
    W.worst_for ~dispatch ~sym ?sink ~graph_spec:e.cfg.graph ~g:e.gs.Spec.g ~algorithm:R.Fast
      ~space:e.cfg.space ~explorer:e.explorer ~pairs ~positions:`All_pairs
      ~delays:Gen.sweep_delays ()
  in
  Option.iter Sink.close sink;
  Option.iter close_out oc;
  let secs = now () -. t0 in
  { index; pairs; result; covered = (W.Stats.snapshot ()).W.Stats.covered - before; secs; jsonl_path }

let md5_file path = Digest.to_hex (Digest.file path)

(* Every line parses with Record.of_json; returns the line count. *)
let parse_jsonl ?(keep = false) path =
  let ic = open_in_bin path in
  let bad = ref 0 and n = ref 0 and kept = ref [] in
  (try
     while true do
       let l = input_line ic in
       incr n;
       match Record.of_json l with
       | Ok r -> if keep then kept := r :: !kept
       | Error _ -> incr bad
     done
   with End_of_file -> ());
  close_in ic;
  (!n, !bad, Array.of_list (List.rev !kept))

(* The checks of one sweep; [] when it is verified. *)
let check e s ~digest =
  let n = n_nodes e in
  let e_bound = W.e_of e.explorer in
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
  (match s.result with
  | Error m -> fail "sweep %d failed: %s" s.index m
  | Ok (t, c) ->
      let tb = R.proven_time_bound R.Fast ~e:e_bound ~space:e.cfg.space in
      let cb = R.proven_cost_bound R.Fast ~e:e_bound ~space:e.cfg.space in
      if t > tb then fail "sweep %d: time %d > proven %d" s.index t tb;
      if c > cb then fail "sweep %d: cost %d > proven %d" s.index c cb);
  let expect = List.length s.pairs * n * (n - 1) * List.length Gen.sweep_delays in
  if s.covered <> expect then fail "sweep %d: covered %d, expected %d" s.index s.covered expect;
  (match s.jsonl_path with
  | None -> ()
  | Some p ->
      let lines, bad, _ = parse_jsonl p in
      if bad > 0 then fail "sweep %d: %d JSONL lines do not parse" s.index bad;
      if lines <> expect then fail "sweep %d: %d JSONL lines, expected %d" s.index lines expect);
  if e.seed = default_seed && s.index = 0 then begin
    let worst, ref_digest = reference e.cfg.workload in
    if s.result <> Ok worst then fail "sweep 0 differs from the recorded reference cell";
    match (ref_digest, digest) with
    | Some d, Some d' when not (String.equal d d') ->
        fail "sweep 0 JSONL digest %s differs from the reference %s" d' d
    | _ -> ()
  end;
  List.rev !fails

(* --- setup samples in fresh processes ---------------------------------- *)

(* What a setup probe must reproduce of sweep 0: cell, coverage, bytes. *)
let signature s ~digest =
  Printf.sprintf "%s %d %s"
    (match s.result with Ok (t, c) -> Printf.sprintf "%d,%d" t c | Error _ -> "error")
    s.covered
    (Option.value digest ~default:"-")

(* The child side: input construction plus one cold sweep, timed from
   the start of the workload. *)
let setup_probe cfg ~seed ~dir ~k =
  let t0 = now () in
  let e = env cfg ~seed ~dir in
  let s = run_sweep e ~index:0 ~jsonl_path:(Filename.concat dir (Printf.sprintf "setup-%d.jsonl" k)) in
  let setup = now () -. t0 in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words in
  Printf.printf "probe %.9f %d %s\n" setup heap (signature s ~digest:(Option.map md5_file s.jsonl_path));
  Option.iter Sys.remove s.jsonl_path

let spawn_probe cfg ~seed ~dir ~k =
  let r, w = Unix.pipe ~cloexec:true () in
  let args =
    [|
      Sys.executable_name; "--setup-probe"; string_of_int k; "--workload"; cfg.workload;
      "--seed"; string_of_int seed; "--out"; dir;
    |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  line

(* --- end-to-end run ----------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let record_check tally fails =
  tally.attempted <- tally.attempted + 1;
  if fails <> [] then begin
    tally.failed <- tally.failed + 1;
    List.iter (log "check failed: %s") fails
  end

(* Sweep 0, its time since [t0] (the setup) and the process's heap peak
   so far, then its checks. *)
let first_sweep e tally ~t0 =
  let s0 = run_sweep e ~index:0 in
  let setup = now () -. t0 in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let digest = Option.map md5_file s0.jsonl_path in
  record_check tally (check e s0 ~digest);
  (s0, digest, setup, heap)

let run cfg ~seed ~seconds ~dir =
  let tally = { attempted = 0; failed = 0 } in
  let probes = List.init (setup_samples - 1) (fun k -> spawn_probe cfg ~seed ~dir ~k) in
  let t0 = now () in
  let e = env cfg ~seed ~dir in
  let s0, digest, setup0, heap0 = first_sweep e tally ~t0 in
  let setups = ref [ setup0 ] and heaps = ref [ mb_of_words heap0 ] in
  let expect = signature s0 ~digest in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | "probe" :: secs :: heap :: rest ->
          setups := float_of_string secs :: !setups;
          heaps := mb_of_words (int_of_string heap) :: !heaps;
          record_check tally
            (if String.equal (String.concat " " rest) expect then []
             else [ Printf.sprintf "setup probe %S does not reproduce sweep 0 (%S)" l expect ])
      | _ -> record_check tally [ Printf.sprintf "setup probe failed: %S" l ])
    probes;
  let timed = ref [] and spent = ref 0. and i = ref 1 in
  while !spent < seconds || List.length !timed < 3 do
    let s = run_sweep e ~index:!i in
    record_check tally (check e s ~digest:None);
    timed := s :: !timed;
    spent := !spent +. s.secs;
    incr i
  done;
  Option.iter (fun p -> if Sys.file_exists p then Sys.remove p) s0.jsonl_path;
  let secs = Array.of_list (List.rev_map (fun s -> s.secs) !timed) in
  let rates = Array.of_list (List.rev_map (fun s -> float_of_int s.covered /. s.secs) !timed) in
  let show l = String.concat " " (List.map (Printf.sprintf "%.3f") l) in
  log "%s: %d timed sweeps, %.0f configs/s (median); sweeps %s s (p99: the slowest); setup %s s; \
       one-sweep heap peaks %s MB"
    cfg.workload (Array.length secs) (median rates) (show (Array.to_list secs)) (show !setups)
    (show !heaps);
  ( tally,
    [
      ("throughput_per_s", median rates);
      ("latency_p50_us", median secs *. 1e6);
      ("setup_s", median (Array.of_list !setups));
      ("heap_peak_mb", median (Array.of_list !heaps));
      ("ok_frac", ok_frac ~attempted:tally.attempted ~failed:tally.failed);
    ] )

(* --- traced run --------------------------------------------------------- *)

let l_symmetry = "Rv_graph.Symmetry"
let l_dispatch = "Rv_experiments.Dispatch"
let l_build = "Rv_sim.Traj_cache+Traj.of_blocks"
let l_scan = "Rv_sim.Traj.meet"
let l_sim = "Rv_sim.Sim"
let l_replay = "Rv_experiments.Workload replay+Rv_engine.Sweep"
let l_sink = "Rv_engine.Record+Sink"

(* Gaps between exported spans, charged by where they fall.  No span
   marks them, so the closure counts them as unattributed. *)
let inferred layer = layer ^ " [inferred]"
let is_inferred (sp : Spans.span) = String.ends_with ~suffix:" [inferred]" sp.Spans.layer

(* Import the rv_obs spans of one [worst_for] call under [root], a span
   covering the call.  The call runs a prelude (for a sweep over all
   start pairs: symmetry detect and certify, charged to [prelude]), then
   the dispatch probes (sim.run) and decision, then the kernel
   (sweep.map_array), then the merge.  The prelude, the decision and the
   merge export no span: they are the gaps between the exported spans,
   marked [inferred].  [detect_us] and [sink_us] are Symmetry.detect and
   the sink timed apart on the same inputs; they are placed at the start
   of the prelude and at the end of the merge. *)
let import tree ~root ~id ~offset ?(prelude = l_symmetry) ?(detect_us = 0.) ?(sink_us = 0.) events =
  let r = Spans.get tree root in
  let evs =
    List.filter_map
      (fun (ev : Obs.event) ->
        match ev.Obs.kind with
        | Obs.Span { dur_us; _ } ->
            let t0 = ev.Obs.ts_us +. offset in
            if t0 >= r.Spans.t0 -. 1. && t0 <= r.Spans.t1 then
              Some (ev.Obs.name, t0, Float.min r.Spans.t1 (t0 +. dur_us))
            else None
        | Obs.Instant -> None)
      events
  in
  (* Handler.eval_vals brackets its sweep in its own span. *)
  let r0, r1 =
    match List.find_opt (fun (n, _, _) -> String.equal n "serve.compute") evs with
    | Some (_, a, b) -> (a, b)
    | None -> (r.Spans.t0, r.Spans.t1)
  in
  let k0, k1, has_kernel =
    match List.find_opt (fun (n, _, _) -> String.equal n "sweep.map_array") evs with
    | Some (_, a, b) -> (a, b, true)
    | None -> (r1, r1, false)
  in
  let probes = List.filter (fun (n, _, b) -> String.equal n "sim.run" && b <= k0) evs in
  let pre_end = List.fold_left (fun acc (_, a, _) -> Float.min acc a) k0 probes in
  let decide0 = List.fold_left (fun acc (_, _, b) -> Float.max acc b) pre_end probes in
  let phase name layer a b = if b > a then [ (name, layer, a, b) ] else [] in
  let phases =
    phase "prelude" (inferred prelude) r0 pre_end
    @ phase "symmetry.detect" l_symmetry r0 (Float.min pre_end (r0 +. detect_us))
    @ phase "dispatch.decide" (inferred l_dispatch) decide0 k0
    @ (if has_kernel then phase "merge" (inferred l_replay) k1 r1 else [])
    @ if has_kernel && sink_us > 0. then phase "sink.emit" l_sink (Float.max k1 (r1 -. sink_us)) r1 else []
  in
  let layer_of (n, _, _) =
    match n with
    | "traj.build" -> l_build
    | "traj.scan" | "traj.scan_intervals" -> l_scan
    | "sim.run" -> l_sim
    | "serve.compute" -> "Rv_serve.Handler"
    | _ -> l_replay
  in
  ignore
    (Spans.nest tree ~parent:root ~id
       (phases @ List.map (fun ((n, a, b) as ev) -> (n, layer_of ev, a, b)) evs))

(* Self-time sum and count of the spans [pred] selects. *)
let sum_self tree self pred =
  let s = ref 0. and c = ref 0 in
  for i = 0 to Spans.count tree - 1 do
    let sp = Spans.get tree i in
    if pred sp then begin
      s := !s +. self.(i);
      incr c
    end
  done;
  (!s, !c)

let named n (sp : Spans.span) = String.equal sp.Spans.name n
let in_layer l (sp : Spans.span) = String.equal sp.Spans.layer l

(* Self time in ms of a layer, its measured and inferred parts. *)
let layer_ms tree self l =
  fst (sum_self tree self (fun sp -> in_layer l sp || in_layer (inferred l) sp)) /. 1e3

(* The trajectory and simulator metrics shared with the serve-cold
   replay. *)
let kernel_metrics tree ~scan_rounds ~sim_rounds =
  let self = Spans.self_times tree in
  let build_ms, builds =
    sum_self tree self (fun sp -> named "traj.build" sp && in_layer l_build sp)
  in
  let scan_ms, scans = sum_self tree self (in_layer l_scan) in
  let sim_ms, sims = sum_self tree self (in_layer l_sim) in
  (* Probes run before the kernel, so no kernel span is their parent. *)
  let _, probes =
    sum_self tree self (fun sp ->
        named "sim.run" sp && sp.Spans.parent >= 0
        && not (in_layer l_replay (Spans.get tree sp.Spans.parent)))
  in
  [
    ("traj.builds", float_of_int builds);
    ("traj.build_ms", build_ms /. 1e3);
    ("traj.scans", float_of_int scans);
    ("traj.scan_rounds", float_of_int scan_rounds);
    ("traj.scan_ms", scan_ms /. 1e3);
    ( "traj.scan_ns_per_round",
      if scan_rounds > 0 then scan_ms *. 1e3 /. float_of_int scan_rounds else 0. );
    ("sim.runs", float_of_int sims);
    ("sim.rounds", float_of_int sim_rounds);
    ("sim.ms", sim_ms /. 1e3);
    ("dispatch.probe_runs", float_of_int probes);
  ]

(* Obs.reset restarts the rv_obs clock; the result is the offset from
   rv_obs timestamps to [Spans.now_us]. *)
let obs_reset () =
  Obs.reset ();
  Spans.now_us () -. Obs.now_us ()

let obs_on () =
  Obs.set_max_events 4_000_000;
  Rv_obs.Counter.reset ();
  Rv_obs.Histogram.reset ();
  Obs.set_enabled true;
  obs_reset ()

let obs_off () =
  let evs = Obs.events () in
  Obs.set_enabled false;
  evs

let scan_rounds () = Rv_obs.Histogram.sum (Rv_obs.Histogram.find "traj.scan_rounds")
let sim_rounds () = Rv_obs.Counter.value (Rv_obs.Counter.find "sim.rounds")

let write_outputs ~dir ~workload tree aux table =
  let base = Filename.concat dir workload in
  let oc = open_out_bin (base ^ ".trace.json") in
  (* The closure tree on its lanes, auxiliary measurements on lane 99. *)
  for i = 0 to Spans.count aux - 1 do
    let s = Spans.get aux i in
    ignore
      (Spans.add tree ~lane:99 ~name:s.Spans.name ~layer:("aux:" ^ s.Spans.layer) ~id:s.Spans.id
         s.Spans.t0 s.Spans.t1)
  done;
  output_string oc (Rv_obs.Json.to_string (Spans.chrome tree ~process:("perfbench " ^ workload)));
  close_out oc;
  let oc = open_out_bin (base ^ ".layers.txt") in
  output_string oc table;
  close_out oc;
  log "wrote %s.trace.json and %s.layers.txt" base base

(* The layer table: self time and calls per layer of the traced unit of
   work, the untraced time it is closed against, and the residual. *)
let layer_table ~workload ~untraced_ms ~traced_ms rows ~unattributed_ms ~notes =
  let b = Buffer.create 1024 in
  let pr fmt = Printf.bprintf b fmt in
  pr "%s: per-layer self time over one traced sweep\n" workload;
  pr "%-60s %12s %10s %8s\n" "layer" "self_ms" "calls" "share";
  List.iter
    (fun (l, ms, calls) ->
      pr "%-60s %12.3f %10d %7.1f%%\n" l ms calls (100. *. ms /. Float.max 1e-9 traced_ms))
    rows;
  pr "traced total %.3f ms, untraced %.3f ms, trace overhead %.1f%%\n" traced_ms untraced_ms
    (100. *. ((traced_ms /. Float.max 1e-9 untraced_ms) -. 1.));
  pr "unattributed %.3f ms (%.1f%% of untraced; target <= 10%%)\n" unattributed_ms
    (100. *. unattributed_ms /. Float.max 1e-9 untraced_ms);
  List.iter (fun n -> pr "note: %s\n" n) notes;
  Buffer.contents b

let traced cfg ~seed ~seconds:_ ~dir ~out =
  let tally = { attempted = 0; failed = 0 } in
  let aux = Spans.create () in
  let calibrate =
    Spans.record aux ~name:"dispatch.calibrate" ~layer:l_dispatch ~id:(-1) (fun sid ->
        ignore (Rv_experiments.Dispatch.constants ());
        sid)
  in
  let e = env cfg ~seed ~dir in
  let _ = first_sweep e tally ~t0:(now ()) in
  (* Untraced sweeps: the time the layers are closed against, and GC. *)
  let untraced =
    List.init 3 (fun k ->
        let g0 = Gc.quick_stat () in
        let s = run_sweep e ~index:(1 + k) in
        let g1 = Gc.quick_stat () in
        record_check tally (check e s ~digest:None);
        (s, g0, g1))
  in
  let med f = median (Array.of_list (List.map f untraced)) in
  let untraced_ms = med (fun (s, _, _) -> s.secs *. 1e3) in
  (* Symmetry.detect on the same graph, warm, as inside the traced sweep. *)
  let index = 4 in
  let detect, sym =
    Spans.record aux ~name:"symmetry.detect" ~layer:l_symmetry ~id:index (fun sid ->
        (sid, Rv_graph.Symmetry.detect e.gs.Spec.g))
  in
  let detect_us = Spans.dur (Spans.get aux detect) in
  (* One traced sweep. *)
  let tree = Spans.create () in
  let st0 = W.Stats.snapshot () and tc0 = Rv_sim.Traj_cache.stats () in
  let offset = obs_on () in
  let root = ref (-1) in
  let s =
    Spans.record tree ~name:"sweep" ~layer:"unattributed" ~id:index (fun sid ->
        root := sid;
        run_sweep e ~index ~jsonl_path:(Filename.concat dir "traced.jsonl"))
  in
  let scan_rounds = scan_rounds () and sim_rounds = sim_rounds () in
  let events = obs_off () in
  let st1 = W.Stats.snapshot () and tc1 = Rv_sim.Traj_cache.stats () in
  record_check tally (check e s ~digest:None);
  (* The sink, replayed on the traced sweep's own records. *)
  let sink =
    match s.jsonl_path with
    | None -> None
    | Some p ->
        let _, _, recs = parse_jsonl ~keep:true p in
        let bytes = (Unix.stat p).Unix.st_size in
        Sys.remove p;
        (* Sink.emit (rendering included) first, then Record.to_json
           alone. *)
        let copy = Filename.concat dir "replay.jsonl" in
        let oc = open_out_bin copy in
        let emit =
          Spans.record aux ~name:"sink.emit" ~layer:l_sink ~id:index (fun sid ->
              let k = Sink.jsonl oc in
              Array.iter (Sink.emit k) recs;
              Sink.close k;
              sid)
        in
        close_out oc;
        Sys.remove copy;
        let render =
          Spans.record aux ~name:"sink.render" ~layer:l_sink ~id:index (fun sid ->
              Array.iter (fun r -> ignore (Record.to_json r)) recs;
              sid)
        in
        Some (Array.length recs, bytes, Spans.dur (Spans.get aux render), Spans.dur (Spans.get aux emit))
  in
  let sink_us = match sink with Some (_, _, _, emit) -> emit | None -> 0. in
  import tree ~root:!root ~id:index ~offset ~detect_us ~sink_us events;
  let traced_ms = Spans.dur (Spans.get tree !root) /. 1e3 in
  let rows =
    List.map (fun r -> (r.Spans.r_layer, r.Spans.self_us /. 1e3, r.Spans.calls)) (Spans.by_layer tree)
  in
  let self = Spans.self_times tree in
  (* Closure: what no measured span covers, the inferred gaps included,
     scaled to the untraced sweep. *)
  let gaps_ms = (self.(!root) +. fst (sum_self tree self is_inferred)) /. 1e3 in
  let unattributed_ms = untraced_ms *. gaps_ms /. Float.max 1e-9 traced_ms in
  let gc f = med (fun (_, g0, g1) -> f g0 g1) in
  let covered = st1.W.Stats.covered - st0.W.Stats.covered in
  let simulated = st1.W.Stats.simulated - st0.W.Stats.simulated in
  let traj_cells = st1.W.Stats.traj_cells - st0.W.Stats.traj_cells in
  let hits = tc1.Rv_sim.Traj_cache.hits - tc0.Rv_sim.Traj_cache.hits in
  let misses = tc1.Rv_sim.Traj_cache.misses - tc0.Rv_sim.Traj_cache.misses in
  let frac a b = if b > 0 then float_of_int a /. float_of_int b else 0. in
  let build_rounds =
    (* Materialized rounds of the kernel's builds (those inside
       sweep.map_array): the schedule duration of each built label, the
       same for every start. *)
    let kernel_ts =
      List.fold_left
        (fun acc (ev : Obs.event) ->
          if String.equal ev.Obs.name "sweep.map_array" then Float.min acc ev.Obs.ts_us else acc)
        infinity events
    in
    let dur = Hashtbl.create 64 in
    let total = ref 0 in
    List.iter
      (fun (ev : Obs.event) ->
        if String.equal ev.Obs.name "traj.build" && ev.Obs.ts_us >= kernel_ts then
          match List.assoc_opt "label" ev.Obs.args with
          | Some (Rv_obs.Json.Int label) ->
              let d =
                match Hashtbl.find_opt dur label with
                | Some d -> d
                | None ->
                    let d =
                      Rv_core.Schedule.duration
                        (R.schedule R.Fast ~space:cfg.space ~label ~explorer:(e.explorer ~start:0))
                    in
                    Hashtbl.add dur label d;
                    d
              in
              total := !total + d
          | _ -> ())
      events;
    !total
  in
  let kernel = kernel_metrics tree ~scan_rounds ~sim_rounds in
  let metrics =
    [
      ("symmetry.detect_ms", detect_us /. 1e3);
      ("symmetry.order", float_of_int (Rv_graph.Symmetry.order sym));
      ("symmetry.certify_ms", fst (sum_self tree self (in_layer (inferred l_symmetry))) /. 1e3);
      ("symmetry.simulated_frac", frac simulated covered);
      ("dispatch.calibrate_ms", Spans.dur (Spans.get aux calibrate) /. 1e3);
      ("dispatch.traj_frac", frac traj_cells simulated);
      ("traj.build_rounds", float_of_int build_rounds);
      ("traj.cache_hit_ratio", frac hits (hits + misses));
      ("replay.configs", float_of_int covered);
      ("replay.ms", layer_ms tree self l_replay);
      ("gc.minor_mwords", gc (fun g0 g1 -> (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6));
      ("gc.major_mwords", gc (fun g0 g1 -> (g1.Gc.major_words -. g0.Gc.major_words) /. 1e6));
      ( "gc.major_collections",
        gc (fun g0 g1 -> float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)) );
      ("unattributed_ms", unattributed_ms);
      ("trace_overhead_pct", 100. *. ((traced_ms /. untraced_ms) -. 1.));
      ("latency.p99_us", 1e3 *. quantile (Array.of_list (List.map (fun (s, _, _) -> s.secs *. 1e3) untraced)) 0.99);
    ]
    @ kernel
    @
    match sink with
    | None -> []
    | Some (records, bytes, render, emit) ->
        [
          ("sink.records", float_of_int records);
          ("sink.bytes", float_of_int bytes);
          ("sink.render_ms", render /. 1e3);
          ("sink.emit_ms", emit /. 1e3);
        ]
  in
  let notes =
    [
      "rows marked [inferred] are gaps between the exported spans, charged by where they fall: \
       before the dispatch probes to Rv_graph.Symmetry (certification and the rest of the \
       worst_for prelude), between the probes and the kernel to Dispatch (the decision), after \
       the kernel to the merge (which, for a symmetry-reduced sweep, replays every configuration \
       through the representative table). No span marks them, so they count as unattributed; \
       symmetry.certify_ms and the merge part of replay.ms are these inferred figures";
      "missing boundaries: certification inside Workload.worst_for, the dispatch decision and \
       the merge export no span";
      "symmetry.detect is Symmetry.detect timed apart on the same graph just before the traced \
       sweep, placed at the start of the prelude";
      "symmetry.certify_builds is not measured: certification builds its trajectories with \
       Traj.of_blocks directly, outside Traj_cache, and exports no span or counter";
    ]
    @
    if sink_us > 0. then
      let merge_ms = ref 0. in
      for i = 0 to Spans.count tree - 1 do
        let sp = Spans.get tree i in
        if named "merge" sp then merge_ms := !merge_ms +. (Spans.dur sp /. 1e3)
      done;
      [
        Printf.sprintf
          "Record+Sink time is Sink.jsonl re-emitting the traced sweep's own records (%.1f ms), \
           placed at the end of the merge (a %.1f ms gap) and clipped to it"
          (sink_us /. 1e3) !merge_ms;
      ]
    else []
  in
  write_outputs ~dir:out ~workload:cfg.workload tree aux
    (layer_table ~workload:cfg.workload ~untraced_ms ~traced_ms
       rows ~unattributed_ms ~notes);
  (tally, metrics)

(* --- reference values --------------------------------------------------- *)

let record_reference cfg ~dir =
  let e = env cfg ~seed:default_seed ~dir in
  let s =
    run_sweep e ~index:0 ~sym:false ~dispatch:`Reference
      ~jsonl_path:(Filename.concat dir "reference.jsonl")
  in
  Printf.printf "%s reference: %s digest %s\n" cfg.workload
    (match s.result with Ok (t, c) -> Printf.sprintf "(%d, %d)" t c | Error m -> m)
    (match s.jsonl_path with Some p -> md5_file p | None -> "-");
  Option.iter Sys.remove s.jsonl_path

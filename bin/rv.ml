(* rv — command-line front end.

   Subcommands:
     run      simulate one rendezvous and print the outcome (optionally a trace)
     trace    deep observability dive into one rendezvous (spans, Chrome trace)
     sweep    worst-case time/cost over starts, delays and label pairs
     explore  verify an exploration procedure and report measured bounds
     lb       run the Section-3 lower-bound pipelines and print their reports
     exp      print experiment tables from the DESIGN.md index
     async    adversarial-scheduler analysis (asynchronous model)
     gather   k-agent gathering with merge-on-meet semantics
     dot      emit a Graphviz rendering of a graph spec
     bake     precompute a worst-case index over a parameter lattice
     serve    TCP query server (index, admission control, result cache, drain)
     loadgen  deterministic load harness for a running serve instance
     chaos    fault-injection scenario catalog / soak mode against rv serve
     fuzz     differential fuzzing (Traj vs Sim, serve vs direct, sym on/off)
     obs      tail/watch/dump a running serve's anomaly flight recorder
     version  build identity and feature flags *)

open Cmdliner
module R = Rv_core.Rendezvous
module Spec = Rv_experiments.Spec
module Table = Rv_util.Table

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("rv: " ^ msg);
      exit 1

(* Shared argument definitions. *)

let graph_arg =
  let doc =
    "Graph specification. Accepted forms: " ^ String.concat ", " Spec.graph_forms ^ "."
  in
  Arg.(value & opt string "ring:16" & info [ "g"; "graph" ] ~docv:"SPEC" ~doc)

let explorer_arg =
  let doc =
    "Exploration procedure. Accepted forms: "
    ^ String.concat ", " Spec.explorer_forms
    ^ "."
  in
  Arg.(value & opt string "auto" & info [ "e"; "explorer" ] ~docv:"SPEC" ~doc)

let algo_arg =
  let doc =
    "Rendezvous algorithm. Accepted forms: "
    ^ String.concat ", " Spec.algorithm_forms
    ^ "."
  in
  Arg.(value & opt string "fast" & info [ "a"; "algo" ] ~docv:"ALGO" ~doc)

let space_arg =
  Arg.(value & opt int 16 & info [ "L"; "space" ] ~docv:"L" ~doc:"Label space size.")

let parse_common ~graph ~explorer ~algo =
  let g = or_die (Spec.parse_graph graph) in
  let ex = or_die (Spec.parse_explorer g explorer) in
  let a = or_die (Spec.parse_algorithm algo) in
  (g, ex, a)

(* The two agents of one rendezvous (run, trace): labels, starts, wake-up
   delays and the placement model.  B starts at the antipode of A's start
   unless --start-b is given, so the term yields a function of the graph
   size [n]; it also checks the agents against [n] and the label space,
   failing as a usage error. *)
type agents = { a : R.party; b : R.party; model : Rv_sim.Sim.model }

let agents_arg =
  let la = Arg.(value & opt int 3 & info [ "la" ] ~doc:"Label of agent A.") in
  let lb = Arg.(value & opt int 11 & info [ "lb" ] ~doc:"Label of agent B.") in
  let sa = Arg.(value & opt int 0 & info [ "start-a" ] ~doc:"Start node of A.") in
  let sb =
    Arg.(
      value
      & opt (some ~none:"antipode" int) None
      & info [ "start-b" ] ~doc:"Start node of B (default: antipode).")
  in
  let da = Arg.(value & opt int 0 & info [ "delay-a" ] ~doc:"Wake-up delay of A.") in
  let db = Arg.(value & opt int 0 & info [ "delay-b" ] ~doc:"Wake-up delay of B.") in
  let parachute =
    Arg.(value & flag & info [ "parachute" ] ~doc:"Use the parachute placement model.")
  in
  let agents la lb sa sb da db parachute ~n ~space =
    let sb = match sb with Some sb -> sb | None -> (sa + (n / 2)) mod n in
    let a = { R.label = la; start = sa; delay = da }
    and b = { R.label = lb; start = sb; delay = db } in
    or_die (R.check_parties ~n ~space a b);
    { a; b; model = (if parachute then Rv_sim.Sim.Parachute else Rv_sim.Sim.Waiting) }
  in
  Term.(const agents $ la $ lb $ sa $ sb $ da $ db $ parachute)

(* The lines run and trace both open with: graph, algorithm, agents and
   where (or whether) the agents met. *)
let print_meeting gs ~e algorithm ~space { a; b; _ } out =
  Printf.printf "graph       : %s (n=%d, E=%d)\n" gs.Spec.spec
    (Rv_graph.Port_graph.n gs.Spec.g) e;
  Printf.printf "algorithm   : %s, label space L=%d\n" (R.name algorithm) space;
  Printf.printf
    "agents      : A(label %d, start %d, delay %d)  B(label %d, start %d, delay %d)\n"
    a.R.label a.R.start a.R.delay b.R.label b.R.start b.R.delay;
  match out.Rv_sim.Sim.meeting_round with
  | Some r ->
      Printf.printf "rendezvous  : node %d in round %d (time %d = %.2f E)\n"
        (Option.get out.Rv_sim.Sim.meeting_node)
        r r
        (float_of_int r /. float_of_int e)
  | None ->
      Printf.printf "rendezvous  : NOT REACHED within %d rounds\n"
        out.Rv_sim.Sim.rounds_run

(* Multicore: -j/--jobs (or RV_JOBS) selects the engine's domain count;
   0 means "auto" = Domain.recommended_domain_count.  Results are
   bit-for-bit identical for every value (Rv_engine.Sweep merges in task
   order), so parallelism is purely a wall-clock knob. *)

let jobs_arg =
  let doc =
    "Worker domains for adversarial sweeps (0 = auto: the hardware's \
     recommended domain count).  Results are identical for every value."
  in
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N" ~env:(Cmd.Env.info "RV_JOBS") ~doc)

let with_pool jobs f =
  let jobs = if jobs > 0 then jobs else Domain.recommended_domain_count () in
  if jobs <= 1 then f None
  else begin
    let pool = Rv_engine.Pool.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Rv_engine.Pool.shutdown pool)
      (fun () -> f (Some pool))
  end

(* --metrics: enable the rv_obs collectors around [f] and append the
   console summary (spans, counters, histograms, GC delta) to stderr. *)

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Collect rv_obs instrumentation (span timings, counters, \
           histograms, GC delta) during the run and print the summary to \
           stderr.")

let with_metrics metrics f =
  if not metrics then f ()
  else begin
    Rv_obs.Obs.set_enabled true;
    Rv_obs.Obs.reset ();
    Rv_obs.Counter.reset ();
    Rv_obs.Histogram.reset ();
    let before = Rv_obs.Gc_snapshot.take () in
    let r = f () in
    let after = Rv_obs.Gc_snapshot.take () in
    Printf.eprintf "%s%!"
      (Rv_obs.Export_console.summary ~gc:(Rv_obs.Gc_snapshot.diff ~before ~after) ());
    r
  end

(* run *)

let run_cmd =
  let run graph explorer algo space agents trace =
    let gs, ex, algorithm = parse_common ~graph ~explorer ~algo in
    let ag = agents ~n:(Rv_graph.Port_graph.n gs.Spec.g) ~space in
    let out =
      R.run ~model:ag.model ~record:trace ~g:gs.Spec.g ~explorer:ex ~algorithm
        ~space ag.a ag.b
    in
    let e = Rv_experiments.Workload.e_of ex in
    print_meeting gs ~e algorithm ~space ag out;
    Printf.printf "cost        : %d traversals (A %d + B %d = %.2f E)\n" out.Rv_sim.Sim.cost
      out.Rv_sim.Sim.cost_a out.Rv_sim.Sim.cost_b
      (float_of_int out.Rv_sim.Sim.cost /. float_of_int e);
    Printf.printf "crossings   : %d (unnoticed, per the model)\n" out.Rv_sim.Sim.crossings;
    Printf.printf "proven      : time <= %d, cost <= %d\n"
      (R.proven_time_bound algorithm ~e ~space)
      (R.proven_cost_bound algorithm ~e ~space);
    match out.Rv_sim.Sim.trace with
    | Some t when trace -> Format.printf "%a" Rv_sim.Trace.pp t
    | Some _ | None -> ()
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the full round-by-round trace.") in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate one rendezvous execution")
    Term.(
      const run $ graph_arg $ explorer_arg $ algo_arg $ space_arg $ agents_arg
      $ trace)

(* trace *)

let trace_cmd =
  let trace graph explorer algo space agents trace_max_rounds chrome jsonl =
    let gs, ex, algorithm = parse_common ~graph ~explorer ~algo in
    let ag = agents ~n:(Rv_graph.Port_graph.n gs.Spec.g) ~space in
    Rv_obs.Obs.set_enabled true;
    Rv_obs.Obs.set_deep true;
    Rv_obs.Obs.reset ();
    Rv_obs.Counter.reset ();
    Rv_obs.Histogram.reset ();
    let before = Rv_obs.Gc_snapshot.take () in
    (* Route the single run through the engine so the trace carries all
       three layers (engine -> sim -> explore) even without a pool. *)
    let out =
      (Rv_engine.Sweep.map_array 1 (fun _ ->
           R.run ~model:ag.model ~record:true ~trace_cap:trace_max_rounds
             ~g:gs.Spec.g ~explorer:ex ~algorithm ~space ag.a ag.b)).(0)
    in
    let after = Rv_obs.Gc_snapshot.take () in
    let e = Rv_experiments.Workload.e_of ex in
    print_meeting gs ~e algorithm ~space ag out;
    Printf.printf "cost        : %d traversals (A %d + B %d)\n" out.Rv_sim.Sim.cost
      out.Rv_sim.Sim.cost_a out.Rv_sim.Sim.cost_b;
    let events = Rv_obs.Obs.events () in
    Printf.printf "\nspan timeline (%d events):\n" (List.length events);
    Printf.printf "  %10s %10s  %-12s %s\n" "ts ms" "dur ms" "lane" "cat:name [rounds]";
    List.iter
      (fun (ev : Rv_obs.Obs.event) ->
        match ev.Rv_obs.Obs.kind with
        | Rv_obs.Obs.Span { dur_us; round_end } ->
            let rounds =
              if ev.Rv_obs.Obs.round < 0 then ""
              else if round_end < 0 || round_end = ev.Rv_obs.Obs.round then
                Printf.sprintf " [round %d]" ev.Rv_obs.Obs.round
              else Printf.sprintf " [rounds %d..%d]" ev.Rv_obs.Obs.round round_end
            in
            Printf.printf "  %10.3f %10.3f  %-12s %s:%s%s\n"
              (ev.Rv_obs.Obs.ts_us /. 1000.) (dur_us /. 1000.)
              (Rv_obs.Obs.lane_name ev.Rv_obs.Obs.tid)
              ev.Rv_obs.Obs.cat ev.Rv_obs.Obs.name rounds
        | Rv_obs.Obs.Instant ->
            let round =
              if ev.Rv_obs.Obs.round < 0 then ""
              else Printf.sprintf " [round %d]" ev.Rv_obs.Obs.round
            in
            Printf.printf "  %10.3f %10s  %-12s %s:%s (instant)%s\n"
              (ev.Rv_obs.Obs.ts_us /. 1000.) "-"
              (Rv_obs.Obs.lane_name ev.Rv_obs.Obs.tid)
              ev.Rv_obs.Obs.cat ev.Rv_obs.Obs.name round)
      events;
    print_newline ();
    (match out.Rv_sim.Sim.trace with
    | Some t -> Format.printf "%a" Rv_sim.Trace.pp t
    | None -> ());
    if out.Rv_sim.Sim.trace_dropped > 0 then
      Printf.printf
        "(%d earliest rounds evicted from the trace ring; raise --trace-max-rounds)\n"
        out.Rv_sim.Sim.trace_dropped;
    print_newline ();
    print_string
      (Rv_obs.Export_console.summary ~gc:(Rv_obs.Gc_snapshot.diff ~before ~after) ());
    (match chrome with
    | Some path ->
        Rv_obs.Export_chrome.write_file path;
        Printf.printf "chrome trace: wrote %s (open at https://ui.perfetto.dev)\n" path
    | None -> ());
    match jsonl with
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Rv_obs.Export_jsonl.write oc);
        Printf.printf "jsonl events: wrote %s\n" path
    | None -> ()
  in
  let trace_max_rounds =
    Arg.(
      value & opt int 10_000
      & info [ "trace-max-rounds" ] ~docv:"N"
          ~doc:
            "Keep only the most recent $(docv) rounds in the printed \
             round-by-round trace (0 or negative: unbounded).")
  in
  let chrome =
    Arg.(
      value & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON to $(docv); load it at \
             https://ui.perfetto.dev or chrome://tracing.  Lanes: one per \
             domain plus one per agent.")
  in
  let jsonl =
    Arg.(
      value & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:"Write the span/counter/histogram stream as JSON lines to $(docv).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Deep observability dive into one rendezvous (spans, Chrome trace)")
    Term.(
      const trace $ graph_arg $ explorer_arg $ algo_arg $ space_arg $ agents_arg
      $ trace_max_rounds $ chrome $ jsonl)

(* sweep *)

let sweep_stats_report () =
  let s = Rv_experiments.Workload.Stats.snapshot () in
  let c = Rv_sim.Traj_cache.stats () in
  let module WS = Rv_experiments.Workload.Stats in
  let lookups = c.Rv_sim.Traj_cache.hits + c.Rv_sim.Traj_cache.misses in
  let ratio = if lookups = 0 then 0. else float_of_int c.Rv_sim.Traj_cache.hits /. float_of_int lookups in
  Printf.sprintf
    "symmetry %s (x%d coverage), %d certification walks, %d image trajectories; \
     %d configs covered / %d simulated \
     (reference %d, traj %d, interval %d); traj cache %d/%d hits (%.0f%%)"
    s.WS.sym_group s.WS.orbit_size s.WS.certify_walks s.WS.image_trajs s.WS.covered
    s.WS.simulated s.WS.reference_cells s.WS.traj_cells s.WS.interval_cells
    c.Rv_sim.Traj_cache.hits lookups (100. *. ratio)

let sweep_cmd =
  let sweep graph explorer algo space max_pairs max_delay all_pairs jobs jsonl csv stats
      metrics =
    let gs, ex, algorithm = parse_common ~graph ~explorer ~algo in
    let e = Rv_experiments.Workload.e_of ex in
    let delays =
      if R.delay_tolerant algorithm then
        List.sort_uniq
          Rv_util.Ord.(pair int int)
          [ (0, 0); (0, 1); (0, max_delay); (1, 0); (max_delay, 0) ]
      else [ (0, 0) ]
    in
    let pairs = Rv_experiments.Workload.sample_pairs ~space ~max_pairs in
    let sinks =
      (match jsonl with
      | Some path -> [ Rv_engine.Sink.file `Jsonl path ]
      | None -> [])
      @ (match csv with Some path -> [ Rv_engine.Sink.file `Csv path ] | None -> [])
    in
    let sink =
      match sinks with [] -> None | [ s ] -> Some s | ss -> Some (Rv_engine.Sink.tee ss)
    in
    let progress = Rv_engine.Progress.create ~total:(List.length pairs) () in
    if stats then begin
      Rv_experiments.Workload.Stats.reset ();
      Rv_sim.Traj_cache.reset_stats ()
    end;
    let positions = if all_pairs then `All_pairs else `Fixed_first in
    let outcome =
      with_metrics metrics (fun () ->
          with_pool jobs (fun pool ->
              Rv_experiments.Workload.worst_for ?pool ?sink ~progress
                ~graph_spec:gs.Spec.spec ~g:gs.Spec.g ~algorithm ~space ~explorer:ex
                ~pairs ~positions ~delays ()))
    in
    Option.iter Rv_engine.Sink.close sink;
    if stats then begin
      Printf.eprintf "rv: sweep: %s\n%!" (Rv_engine.Progress.report progress);
      Printf.eprintf "rv: sweep: %s\n%!" (sweep_stats_report ())
    end;
    match outcome with
    | Error msg ->
        prerr_endline ("rv: rendezvous failure during sweep: " ^ msg);
        exit 1
    | Ok (t, c) ->
        Table.print
          (Table.make
             ~title:(Printf.sprintf "worst case over %d label pairs" (List.length pairs))
             ~headers:[ "metric"; "measured"; "proven bound"; "ratio" ]
             [
               [
                 "time";
                 string_of_int t;
                 string_of_int (R.proven_time_bound algorithm ~e ~space);
                 Table.cell_ratio (float_of_int t)
                   (float_of_int (R.proven_time_bound algorithm ~e ~space));
               ];
               [
                 "cost";
                 string_of_int c;
                 string_of_int (R.proven_cost_bound algorithm ~e ~space);
                 Table.cell_ratio (float_of_int c)
                   (float_of_int (R.proven_cost_bound algorithm ~e ~space));
               ];
             ])
  in
  let max_pairs =
    Arg.(value & opt int 8 & info [ "pairs" ] ~doc:"Maximum number of label pairs to sweep.")
  in
  let max_delay = Arg.(value & opt int 8 & info [ "max-delay" ] ~doc:"Largest wake-up delay.") in
  let all_pairs =
    Arg.(
      value & flag
      & info [ "all-pairs" ]
          ~doc:
            "Sweep every ordered starting-position pair instead of pinning \
             agent A to node 0.  On vertex-transitive graphs the sweep \
             evaluates only one representative per symmetry orbit and \
             replays the rest (disable with RV_NO_SYM=1; the output is \
             byte-identical either way).")
  in
  let jsonl =
    Arg.(
      value & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:
            "Stream one JSON record per simulated configuration to $(docv) \
             (schema: see Rv_engine.Record).  The stream is byte-identical \
             for every --jobs value.")
  in
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Like --jsonl, but as a CSV table with header.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print sweep counters to stderr: tasks and worst-so-far, plus the \
             symmetry coverage multiplier, certification walks and image \
             trajectories, per-kernel cell counts (reference / trajectory / \
             interval) and the trajectory-cache hit ratio.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Worst-case time/cost over starts, delays and labels")
    Term.(
      const sweep $ graph_arg $ explorer_arg $ algo_arg $ space_arg $ max_pairs $ max_delay
      $ all_pairs $ jobs_arg $ jsonl $ csv $ stats $ metrics_arg)

(* explore *)

let explore_cmd =
  let explore graph explorer =
    let gs = or_die (Spec.parse_graph graph) in
    let ex = or_die (Spec.parse_explorer gs explorer) in
    let g = gs.Spec.g in
    let declared = Rv_experiments.Workload.e_of ex in
    (match Rv_explore.Bounds.verify g ~make:ex with
    | Ok () -> ()
    | Error msg ->
        prerr_endline ("rv: exploration contract violated: " ^ msg);
        exit 1);
    (match Rv_explore.Bounds.verify_repeated g ~make:ex ~executions:3 with
    | Ok () -> ()
    | Error msg ->
        prerr_endline ("rv: repeated-execution contract violated: " ^ msg);
        exit 1);
    let worst = or_die (Rv_explore.Bounds.worst g ~make:ex) in
    Printf.printf "graph          : %s (n=%d, e=%d edges)\n" gs.Spec.spec
      (Rv_graph.Port_graph.n g) (Rv_graph.Port_graph.num_edges g);
    Printf.printf "explorer       : %s\n" (ex ~start:0).Rv_explore.Explorer.name;
    Printf.printf "declared E     : %d rounds\n" declared;
    Printf.printf "measured worst : %d rounds to cover all nodes (tightest valid E)\n" worst;
    Printf.printf "contract       : verified from every start, including repeated executions\n"
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Verify an exploration procedure and measure its exact bound")
    Term.(const explore $ graph_arg $ explorer_arg)

(* lb *)

let lb_cmd =
  let lb n space which algo =
    let vectors =
      match algo with
      | "" -> None
      | spec ->
          let a = or_die (Spec.parse_algorithm spec) in
          Some (Rv_lowerbound.Theorem_cheap.vectors_of ~n ~space a)
    in
    match which with
    | "cheap" -> (
        let vectors =
          match vectors with
          | Some v -> v
          | None -> Rv_lowerbound.Theorem_cheap.cheap_sim_vectors ~n ~space
        in
        match Rv_lowerbound.Theorem_cheap.analyze ~n ~vectors with
        | Error msg ->
            prerr_endline ("rv: " ^ msg);
            exit 1
        | Ok r ->
            Printf.printf
              "Theorem 3.1 pipeline on cheap-sim (n=%d, L=%d):\n\
              \  phi (cost slack)      : %d\n\
              \  Fact 3.5 violations   : %d\n\
              \  chain length          : %d\n\
              \  strictly increasing   : %b\n\
              \  slope (rounds/step)   : %.1f (predicted >= %.1f)\n\
              \  last |alpha|          : %d rounds (Omega(EL) expected)\n"
              n space r.Rv_lowerbound.Theorem_cheap.phi r.fact_3_5_violations
              (List.length r.chain) r.chain_monotone r.slope r.predicted_slope
              r.last_duration;
            List.iter
              (fun (s : Rv_lowerbound.Tournament.chain_step) ->
                Printf.printf "    alpha_%d: labels (%d,%d) meet at round %d\n" s.index
                  s.first s.second s.duration)
              r.chain)
    | "fast" -> (
        let vectors =
          match vectors with
          | Some v -> v
          | None -> Rv_lowerbound.Theorem_cheap.fast_sim_vectors ~n ~space
        in
        match Rv_lowerbound.Theorem_fast.analyze ~n ~vectors with
        | Error msg ->
            prerr_endline ("rv: " ^ msg);
            exit 1
        | Ok r ->
            Printf.printf
              "Theorem 3.2 pipeline on fast-sim (n=%d, L=%d):\n\
              \  largest pigeonhole group : block %d (%d agents)\n\
              \  progress vectors distinct: %b\n\
              \  max non-zero entries     : %d\n\
              \  implied cost (k*E/6)     : %d\n" n space
              r.Rv_lowerbound.Theorem_fast.group_block (List.length r.group)
              r.distinct_progress r.max_nonzero r.min_implied_cost_of_max;
            List.iter
              (fun (a : Rv_lowerbound.Theorem_fast.agent_report) ->
                Printf.printf
                  "    label %3d: m_x=%5d block=%3d nonzero=%3d implied>=%4d solo cost=%5d\n"
                  a.label a.m_x a.block a.nonzero a.implied_cost a.solo_cost)
              r.agents)
    | other ->
        prerr_endline ("rv: unknown pipeline " ^ other ^ " (use cheap | fast)");
        exit 1
  in
  let n = Arg.(value & opt int 24 & info [ "n" ] ~doc:"Ring size (6 | n for fast).") in
  let which =
    Arg.(value & pos 0 string "cheap" & info [] ~docv:"PIPELINE" ~doc:"cheap | fast")
  in
  let algo =
    Arg.(value & opt string ""
         & info [ "a"; "algo" ]
             ~doc:"Run the pipeline on this algorithm's behaviour vectors instead of the default subject (e.g. fwr-sim:2).")
  in
  Cmd.v
    (Cmd.info "lb" ~doc:"Run the Section-3 lower-bound pipelines")
    Term.(const lb $ n $ space_arg $ which $ algo)

(* exp *)

let exp_cmd =
  let exp ids all markdown stats jobs metrics =
    let emit t =
      if markdown then print_string (Table.render_markdown t ^ "\n") else Table.print t
    in
    if stats then begin
      Rv_experiments.Workload.Stats.reset ();
      Rv_sim.Traj_cache.reset_stats ()
    end;
    (with_metrics metrics @@ fun () ->
     with_pool jobs (fun pool ->
         if all then List.iter (fun (_, t) -> emit t) (Rv_experiments.Report.all ?pool ())
         else if ids = [] then begin
           Printf.printf "available experiments: %s\n"
             (String.concat ", " Rv_experiments.Report.ids);
           Printf.printf "use 'rv exp A B ...' or 'rv exp --all'\n"
         end
         else
           List.iter
             (fun id ->
               match Rv_experiments.Report.by_id id with
               | Some f -> emit (f ?pool ())
               | None ->
                   prerr_endline ("rv: unknown experiment " ^ id);
                   exit 1)
             ids));
    if stats then Printf.eprintf "rv: exp: %s\n%!" (sweep_stats_report ())
  in
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (A..M, G2).") in
  let all = Arg.(value & flag & info [ "all" ] ~doc:"Print every experiment table.") in
  let markdown =
    Arg.(value & flag & info [ "md"; "markdown" ] ~doc:"Emit GitHub-flavoured markdown.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print sweep kernel counters to stderr after the tables: per-path \
             cell counts (reference / trajectory / interval), the symmetry \
             coverage multiplier, certification walks and image trajectories, \
             and the trajectory-cache hit ratio, summed over every sweep the \
             selected experiments ran.")
  in
  Cmd.v (Cmd.info "exp" ~doc:"Print experiment tables from the DESIGN.md index")
    Term.(const exp $ ids $ all $ markdown $ stats $ jobs_arg $ metrics_arg)

(* selftest *)

let selftest_cmd =
  let selftest () =
    (* Verify the EXPLORE contract for every (family, explorer) pairing the
       Spec layer supports, then check the proven rendezvous bounds on a
       quick Fast sweep per family. *)
    let cases =
      [
        ("ring:12", "ring");
        ("ring:12", "dfs");
        ("scrambled-ring:10", "dfs");
        ("grid:3x4", "dfs");
        ("grid:3x4", "dfs-nr");
        ("grid:3x3", "unmarked");
        ("torus:3x4", "euler");
        ("torus:3x4", "ham");
        ("hypercube:3", "ham");
        ("complete:7", "ham");
        ("tree:10", "dfs");
        ("binary:2", "dfs-nr");
        ("petersen", "dfs");
        ("lollipop:4:3", "dfs");
        ("random:10:4", "dfs");
        ("wheel:7", "dfs");
      ]
    in
    let failures = ref 0 in
    List.iter
      (fun (gspec, espec) ->
        match Spec.parse_graph gspec with
        | Error e ->
            incr failures;
            Printf.printf "FAIL %-20s %-10s parse: %s\n" gspec espec e
        | Ok gs -> (
            match Spec.parse_explorer gs espec with
            | Error e ->
                incr failures;
                Printf.printf "FAIL %-20s %-10s explorer: %s\n" gspec espec e
            | Ok ex -> (
                match
                  ( Rv_explore.Bounds.verify gs.Spec.g ~make:ex,
                    Rv_explore.Bounds.verify_repeated gs.Spec.g ~make:ex ~executions:2 )
                with
                | Ok (), Ok () -> (
                    let e = Rv_experiments.Workload.e_of ex in
                    match
                      Rv_experiments.Workload.worst_for ~g:gs.Spec.g
                        ~algorithm:R.Fast ~space:8 ~explorer:ex ~pairs:[ (3, 5) ]
                        ~positions:
                          (`Pairs [ (0, Rv_graph.Port_graph.n gs.Spec.g - 1) ])
                        ~delays:[ (0, 0); (0, 1) ] ()
                    with
                    | Ok (t, c) ->
                        let tb = R.proven_time_bound R.Fast ~e ~space:8 in
                        let cb = R.proven_cost_bound R.Fast ~e ~space:8 in
                        if t <= tb && c <= cb then
                          Printf.printf "ok   %-20s %-10s E=%-5d time %d/%d cost %d/%d\n"
                            gspec espec e t tb c cb
                        else begin
                          incr failures;
                          Printf.printf "FAIL %-20s %-10s bound exceeded\n" gspec espec
                        end
                    | Error msg ->
                        incr failures;
                        Printf.printf "FAIL %-20s %-10s rendezvous: %s\n" gspec espec msg)
                | Error msg, _ | _, Error msg ->
                    incr failures;
                    Printf.printf "FAIL %-20s %-10s contract: %s\n" gspec espec msg)))
      cases;
    if !failures = 0 then print_endline "selftest: all checks passed"
    else begin
      Printf.printf "selftest: %d failures\n" !failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "selftest"
       ~doc:"Verify exploration contracts and rendezvous bounds across all builtin families")
    Term.(const selftest $ const ())

(* async *)

let async_cmd =
  let async n la lb gap algo =
    let gs = or_die (Spec.parse_graph (Printf.sprintf "ring:%d" n)) in
    let g = gs.Spec.g in
    let explorer = Rv_explore.Ring_walk.clockwise ~n in
    let show = function
      | Rv_async.Async_model.Forced k -> Printf.sprintf "FORCED (after %d events)" k
      | Rv_async.Async_model.Evadable { final_a; final_b } ->
          Printf.sprintf "EVADABLE (adversary parks the agents at %d and %d)" final_a final_b
    in
    let report =
      match algo with
      | "async-ring" -> Rv_async.Async_ring.analyze ~n ~label_a:la ~start_a:0 ~label_b:lb ~start_b:gap
      | name ->
          let a = or_die (Spec.parse_algorithm name) in
          let route label start =
            Rv_async.Async_model.route_of_schedule g ~start
              (R.schedule a ~space:(max la lb) ~label ~explorer:explorer)
          in
          Rv_async.Async_model.analyze g ~route_a:(route la 0) ~route_b:(route lb gap)
    in
    Printf.printf "oriented ring n=%d, labels %d vs %d, gap %d, algorithm %s\n" n la lb gap algo;
    Printf.printf "  node meeting : %s\n" (show report.Rv_async.Async_model.node_meeting);
    Printf.printf "  edge meeting : %s\n" (show report.Rv_async.Async_model.edge_meeting);
    Printf.printf "  route lengths: %d and %d edges\n"
      (List.length report.Rv_async.Async_model.route_a - 1)
      (List.length report.Rv_async.Async_model.route_b - 1)
  in
  let n = Arg.(value & opt int 8 & info [ "n" ] ~doc:"Ring size.") in
  let la = Arg.(value & opt int 2 & info [ "la" ] ~doc:"Label of agent A.") in
  let lb = Arg.(value & opt int 5 & info [ "lb" ] ~doc:"Label of agent B.") in
  let gap = Arg.(value & opt int 3 & info [ "gap" ] ~doc:"Clockwise distance from A to B.") in
  let algo =
    Arg.(value & opt string "cheap"
         & info [ "a"; "algo" ] ~doc:"cheap | fast | fwr:W | async-ring")
  in
  Cmd.v
    (Cmd.info "async" ~doc:"Adversarial-scheduler analysis (asynchronous model)")
    Term.(const async $ n $ la $ lb $ gap $ algo)

(* gather *)

let gather_cmd =
  let gather graph explorer count =
    let gs = or_die (Spec.parse_graph graph) in
    let ex = or_die (Spec.parse_explorer gs explorer) in
    let g = gs.Spec.g in
    let n = Rv_graph.Port_graph.n g in
    if count < 2 || count > n then begin
      prerr_endline "rv: agent count must be between 2 and n";
      exit 1
    end;
    let agents =
      List.init count (fun i ->
          let label = i + 1 in
          let start = i * n / count in
          {
            Rv_sim.Gather.name = Printf.sprintf "agent%d" label;
            label;
            start;
            step =
              Rv_core.Schedule.to_instance
                (Rv_core.Cheap.schedule_simultaneous ~label ~explorer:(ex ~start));
          })
    in
    let e = Rv_experiments.Workload.e_of ex in
    let out = Rv_sim.Gather.run ~g ~max_rounds:(4 * count * e) agents in
    List.iter
      (fun (m : Rv_sim.Gather.merge_event) ->
        Printf.printf "round %4d: merged {%s}\n" m.Rv_sim.Gather.round
          (String.concat ", " m.Rv_sim.Gather.members))
      out.Rv_sim.Gather.merges;
    match out.Rv_sim.Gather.gathered_round with
    | Some r ->
        Printf.printf "gathered %d agents in round %d (E = %d) at total cost %d\n" count r e
          out.Rv_sim.Gather.total_cost
    | None -> Printf.printf "no gathering within %d rounds\n" out.Rv_sim.Gather.rounds_run
  in
  let count = Arg.(value & opt int 4 & info [ "k"; "agents" ] ~doc:"Number of agents.") in
  Cmd.v
    (Cmd.info "gather" ~doc:"Gather k agents with merge-on-meet cheap-sim schedules")
    Term.(const gather $ graph_arg $ explorer_arg $ count)

(* lint *)

let lint_cmd = Rv_lint.Cli.cmd "lint" exit

(* dot *)

let dot_cmd =
  let dot graph =
    let gs = or_die (Spec.parse_graph graph) in
    print_string (Rv_graph.Dot.to_dot gs.Spec.g)
  in
  Cmd.v (Cmd.info "dot" ~doc:"Emit Graphviz for a graph spec") Term.(const dot $ graph_arg)

(* bake *)

let bake_cmd =
  let bake out graphs algorithms explorers spaces pairs max_delays run_labels
      generation jobs =
    let lattice =
      or_die
        (Rv_index.Lattice.of_args ~graphs ~algorithms ~explorers ~spaces ~pairs
           ~max_delays ~run_labels ())
    in
    let cells = Rv_index.Lattice.cells lattice in
    with_pool jobs @@ fun pool ->
    let entries =
      List.map
        (fun q ->
          let key = Rv_index.Key.render q in
          match Rv_serve.Handler.eval_vals ?pool ~deadline_us:None q with
          | Ok v -> (key, Rv_serve.Handler.values_of_vals v)
          | Error (_, msg, _) ->
              prerr_endline (Printf.sprintf "rv bake: %s: %s" key msg);
              exit 1)
        cells
    in
    match
      Rv_index.Writer.write ~path:out ~generation
        ~meta:(Rv_index.Lattice.describe lattice)
        entries
    with
    | Error msg ->
        prerr_endline ("rv bake: " ^ msg);
        exit 1
    | Ok n ->
        Printf.printf
          "rv bake: wrote %s (%d records, generation %d, format v%d)\n" out n
          generation Rv_index.Format.version
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Index file to write.")
  in
  let graphs =
    Arg.(
      value
      & opt string "ring:16"
      & info [ "graphs" ] ~docv:"SPEC,..."
          ~doc:"Comma-separated graph specs to bake.")
  in
  let algorithms =
    Arg.(
      value & opt string "fast"
      & info [ "algorithms" ] ~docv:"ALGO,..."
          ~doc:"Comma-separated rendezvous algorithms.")
  in
  let explorers =
    Arg.(
      value & opt string "auto"
      & info [ "explorers" ] ~docv:"SPEC,..."
          ~doc:"Comma-separated exploration procedures.")
  in
  let spaces =
    Arg.(
      value & opt string "16"
      & info [ "spaces" ] ~docv:"L,..." ~doc:"Comma-separated label-space sizes.")
  in
  let pairs =
    Arg.(
      value & opt string "8"
      & info [ "pairs" ] ~docv:"N,..." ~doc:"Comma-separated label-pair budgets.")
  in
  let max_delays =
    Arg.(
      value & opt string "8"
      & info [ "max-delays" ] ~docv:"D,..."
          ~doc:"Comma-separated largest wake-up delays.")
  in
  let run_labels =
    Arg.(
      value & opt string ""
      & info [ "run-labels" ] ~docv:"A:B,..."
          ~doc:
            "Also bake run cells for these label pairs (start 0 vs antipode, \
             zero delays, waiting model — the wire protocol's defaults).")
  in
  let generation =
    Arg.(
      value & opt int 1
      & info [ "generation" ] ~docv:"N"
          ~doc:"Generation number stamped into the index header.")
  in
  Cmd.v
    (Cmd.info "bake"
       ~doc:
         "Precompute a worst-case index over a parameter lattice and write \
          it as a versioned binary file for rv serve --index")
    Term.(
      const bake $ out $ graphs $ algorithms $ explorers $ spaces $ pairs
      $ max_delays $ run_labels $ generation $ jobs_arg)

(* serve *)

let port_arg =
  Arg.(
    value & opt int 7421
    & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port to listen on (0 = ephemeral).")

let serve_cmd =
  let serve port jobs cache_mb queue_cap deadline_ms index index_backfill
      no_telemetry slow_us metrics =
    with_metrics metrics @@ fun () ->
    let jobs = if jobs > 0 then jobs else Domain.recommended_domain_count () in
    let server =
      Rv_serve.Server.start
        {
          Rv_serve.Server.default_config with
          port;
          jobs;
          cache_bytes = cache_mb * 1024 * 1024;
          queue_cap;
          default_deadline_ms = (if deadline_ms > 0 then Some deadline_ms else None);
          index_path = index;
          index_backfill;
          telemetry = not no_telemetry;
          slow_us;
        }
    in
    Rv_serve.Server.install_signals server;
    Printf.printf "rv serve: listening on 127.0.0.1:%d (jobs %d, cache %d MiB, queue %d%s%s)\n%!"
      (Rv_serve.Server.port server) jobs cache_mb queue_cap
      (if deadline_ms > 0 then Printf.sprintf ", deadline %dms" deadline_ms else "")
      (match index with
      | Some path ->
          Printf.sprintf ", index %s%s" path
            (if index_backfill then "+backfill" else "")
      | None -> "");
    (* Blocks until SIGINT/SIGTERM triggers the drain; SIGHUP reloads
       the index in place. *)
    Rv_serve.Server.join server;
    Printf.printf "rv serve: drained\n%!"
  in
  let cache_mb =
    Arg.(
      value & opt int 8
      & info [ "cache-mb" ] ~docv:"MB" ~doc:"Result cache budget in MiB (0 disables).")
  in
  let queue_cap =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission queue bound; a full queue answers overloaded immediately.")
  in
  let deadline_ms =
    Arg.(
      value & opt int 0
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Default per-request deadline (0 = none; requests may set their own).")
  in
  let index =
    Arg.(
      value
      & opt (some string) None
      & info [ "index" ] ~docv:"FILE"
          ~doc:
            "Consult this baked rv_index file before the result cache.  A \
             missing or corrupt file is a warning, not a failure; SIGHUP \
             reloads it live.")
  in
  let index_backfill =
    Arg.(
      value & flag
      & info [ "index-backfill" ]
          ~doc:
            "Accumulate computed index misses and periodically republish \
             --index as the next generation (requires --index).")
  in
  let no_telemetry =
    Arg.(
      value & flag
      & info [ "no-telemetry" ]
          ~doc:
            "Disable the always-on serving telemetry (sliding latency \
             windows and the flight recorder).  Reply bytes are identical \
             either way; this exists for overhead measurement.")
  in
  let slow_us =
    Arg.(
      value & opt int 10_000
      & info [ "slow-us" ] ~docv:"US"
          ~doc:
            "Flag requests slower than this as slow in the flight recorder \
             (only when the request carries no deadline; with one, the \
             threshold is half the budget).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve rendezvous queries over TCP (newline-delimited JSON) with \
          admission control, a precomputed index, a result cache and \
          graceful drain")
    Term.(
      const serve $ port_arg $ jobs_arg $ cache_mb $ queue_cap $ deadline_ms
      $ index $ index_backfill $ no_telemetry $ slow_us $ metrics_arg)

(* loadgen *)

let loadgen_cmd =
  let loadgen port conns requests seed mix churn dump json =
    let mix = or_die (Rv_serve.Loadgen.mix_of_string mix) in
    let s =
      or_die (Rv_serve.Loadgen.run ~port ~conns ~requests ~seed ~mix ~churn ())
    in
    if dump then List.iter print_endline s.Rv_serve.Loadgen.transcript;
    if json then
      print_endline (Rv_obs.Json.to_string (Rv_serve.Loadgen.summary_json s))
    else Rv_serve.Loadgen.print_summary stdout s;
    (* Server-measured latency must nest inside the client-measured one;
       a violation is a clock or accounting bug, never rounding. *)
    match Rv_serve.Loadgen.server_clock_check s with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "rv loadgen: SERVER/CLIENT CLOCK CHECK FAILED: %s\n%!"
          msg;
        exit 1
  in
  let conns =
    Arg.(value & opt int 4 & info [ "c"; "conns" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let requests =
    Arg.(value & opt int 200 & info [ "n"; "requests" ] ~docv:"N" ~doc:"Total requests.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Request-mix seed.")
  in
  let mix =
    Arg.(
      value & opt string "cached"
      & info [ "mix" ] ~docv:"MIX"
          ~doc:
            "Request mix: cached, mixed, heavy or index (index cycles the \
             canonical bake lattice — see rv bake).")
  in
  let churn =
    Arg.(
      value & opt int 0
      & info [ "churn" ] ~docv:"N"
          ~doc:
            "Additionally run N deterministic connect/one-request/disconnect \
             cycles from a dedicated thread — reproducible registry churn \
             mixed into the seeded stream.")
  in
  let dump =
    Arg.(
      value & flag
      & info [ "dump" ]
          ~doc:
            "Print the reply transcript (sorted by request id) to stdout \
             before the summary — the deterministic byte stream the CI \
             golden compares across -j1/-j2 and cache on/off.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the summary as one JSON object.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a running rv serve instance with a seeded deterministic load")
    Term.(
      const loadgen $ port_arg $ conns $ requests $ seed $ mix $ churn $ dump
      $ json)

(* chaos / fuzz — the rv_chaos harness.

   Both spawn an in-process server on an ephemeral port when --port is 0
   (the default), so `rv chaos` and `rv fuzz` work standalone in CI; a
   nonzero --port targets an externally started rv serve instead. *)

let chaos_host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Server address.")

let chaos_port_arg =
  Arg.(
    value & opt int 0
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:
          "Target server port; 0 (the default) spawns an in-process rv \
           serve on an ephemeral port for the duration of the run.")

let chaos_seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Scenario/cell seed.")

(* Spawn the in-process target when [port = 0]; the returned finalizer
   drains it.  The queue is kept small so the storm scenario's burst
   (2 x cap + 4) stays cheap. *)
let with_chaos_server ~port ~queue ~jobs f =
  if port <> 0 then f port
  else begin
    let jobs = if jobs > 0 then jobs else 1 in
    let server =
      Rv_serve.Server.start
        { Rv_serve.Server.default_config with port = 0; jobs; queue_cap = queue }
    in
    Fun.protect
      ~finally:(fun () -> Rv_serve.Server.stop server)
      (fun () -> f (Rv_serve.Server.port server))
  end

let chaos_queue_arg =
  Arg.(
    value & opt int 4
    & info [ "queue" ] ~docv:"N"
        ~doc:"Admission-queue bound for the spawned in-process server.")

let chaos_cmd =
  let chaos port host seed only soak sample_period drift_frac out queue jobs =
    with_chaos_server ~port ~queue ~jobs @@ fun port ->
    match soak with
    | Some duration_s ->
        let r =
          or_die
            (Rv_chaos.Soak.run ~sample_period_s:sample_period ~drift_frac
               ~host ~port ~duration_s ~seed ())
        in
        Rv_chaos.Soak.print_report stdout r;
        Rv_engine.Sink.write_file_atomic out (fun oc ->
            output_string oc
              (Rv_obs.Json.to_string (Rv_chaos.Soak.report_json r));
            output_char oc '\n');
        Printf.printf "wrote %s\n%!" out;
        if not r.Rv_chaos.Soak.r_pass then exit 1
    | None ->
        let only = match only with [] -> None | l -> Some l in
        let outcomes =
          or_die (Rv_chaos.Scenario.run_all ?only ~host ~port ~seed ())
        in
        let failed =
          List.filter (fun o -> not o.Rv_chaos.Scenario.o_passed) outcomes
        in
        List.iter
          (fun o ->
            Printf.printf "%-24s %s  %s\n" o.Rv_chaos.Scenario.o_name
              (if o.Rv_chaos.Scenario.o_passed then "ok  " else "FAIL")
              o.Rv_chaos.Scenario.o_detail)
          outcomes;
        Printf.printf "chaos: %d/%d scenarios passed\n%!"
          (List.length outcomes - List.length failed)
          (List.length outcomes);
        (match failed with [] -> () | _ -> exit 1)
  in
  let only =
    Arg.(
      value
      & opt_all string []
      & info [ "only" ] ~docv:"NAME"
          ~doc:
            ("Run only this scenario (repeatable).  Catalog: "
            ^ String.concat ", " Rv_chaos.Scenario.names
            ^ "."))
  in
  let soak =
    Arg.(
      value
      & opt (some float) None
      & info [ "soak" ] ~docv:"SECONDS"
          ~doc:
            "Soak mode: run the mixed hostile+clean workload for this long \
             while scraping Prometheus gauges, fit a drift line per gauge \
             and fail on non-flat memory or stuck connections.")
  in
  let sample_period =
    Arg.(
      value & opt float 1.0
      & info [ "sample-period" ] ~docv:"SECONDS"
          ~doc:"Soak telemetry scrape interval.")
  in
  let drift_frac =
    Arg.(
      value & opt float 0.25
      & info [ "drift-frac" ] ~docv:"FRAC"
          ~doc:
            "Soak flatness tolerance: fitted growth over the window must \
             stay within this fraction of the gauge's mean (floored above \
             allocator noise).")
  in
  let out =
    Arg.(
      value & opt string "BENCH_chaos.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Soak report destination.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the fault-injection scenario catalog (or --soak) against an \
          rv serve instance and assert the serving contract")
    Term.(
      const chaos $ chaos_port_arg $ chaos_host_arg $ chaos_seed_arg $ only
      $ soak $ sample_period $ drift_frac $ out $ chaos_queue_arg $ jobs_arg)

let fuzz_cmd =
  let fuzz port seed cells budget plant checks fixture_dir repro no_serve queue
      jobs =
    let checks =
      match checks with
      | [] -> Rv_chaos.Fuzz.all_checks
      | l -> List.map (fun s -> or_die (Rv_chaos.Fuzz.check_of_string s)) l
    in
    if plant then
      Rv_chaos.Fuzz.set_planted_fault (Some Rv_chaos.Fuzz.planted_default);
    let with_server f =
      if no_serve then f None
      else with_chaos_server ~port ~queue ~jobs (fun p -> f (Some p))
    in
    with_server @@ fun serve_port ->
    match repro with
    | Some path ->
        (* Replay a committed fixture: a clean tree answers "no mismatch";
           with --plant the planted fixture must still reproduce. *)
        let check, cell = or_die (Rv_chaos.Shrink.read_fixture path) in
        (match Rv_chaos.Fuzz.eval ?serve_port check cell with
        | Ok () ->
            Printf.printf "fuzz: %s: no mismatch (%s)\n%!" path
              (Rv_chaos.Fuzz.cell_to_string cell)
        | Error m ->
            Printf.printf "fuzz: %s: MISMATCH reproduced (%s)\n  expected %s\n  actual   %s\n%!"
              path
              (Rv_chaos.Fuzz.cell_to_string m.Rv_chaos.Fuzz.m_cell)
              m.Rv_chaos.Fuzz.m_expected m.Rv_chaos.Fuzz.m_actual;
            exit 1)
    | None -> (
        let r =
          Rv_chaos.Fuzz.run ?serve_port ~checks ~seed ~cells ~budget_s:budget
            ()
        in
        Printf.printf "fuzz: seed %d: %d cells, %d checks\n%!" seed
          r.Rv_chaos.Fuzz.cells_run r.Rv_chaos.Fuzz.checks_run;
        match r.Rv_chaos.Fuzz.mismatch with
        | None -> Printf.printf "fuzz: no mismatches\n%!"
        | Some m ->
            let oracle c =
              match Rv_chaos.Fuzz.eval ?serve_port m.Rv_chaos.Fuzz.m_check c with
              | Ok () -> false
              | Error _ -> true
            in
            let minimal, stats =
              Rv_chaos.Shrink.shrink ~oracle m.Rv_chaos.Fuzz.m_cell
            in
            (* Re-evaluate the minimum so the fixture's expected/actual
               context describes the shrunk cell, not the original. *)
            let m =
              match Rv_chaos.Fuzz.eval ?serve_port m.Rv_chaos.Fuzz.m_check minimal with
              | Error m' -> m'
              | Ok () -> { m with Rv_chaos.Fuzz.m_cell = minimal }
            in
            let path = Rv_chaos.Shrink.write_fixture ~dir:fixture_dir m in
            Printf.printf
              "fuzz: MISMATCH (%s)\n  cell     %s\n  expected %s\n  actual   %s\n\
               fuzz: shrunk in %d steps (%d accepted) -> %s\n%!"
              (Rv_chaos.Fuzz.check_to_string m.Rv_chaos.Fuzz.m_check)
              (Rv_chaos.Fuzz.cell_to_string m.Rv_chaos.Fuzz.m_cell)
              m.Rv_chaos.Fuzz.m_expected m.Rv_chaos.Fuzz.m_actual
              stats.Rv_chaos.Shrink.s_steps stats.Rv_chaos.Shrink.s_accepted
              path;
            exit 1)
  in
  let cells =
    Arg.(
      value & opt int 200
      & info [ "n"; "cells" ] ~docv:"N"
          ~doc:"Random cells to draw (0 = unbounded, bounded by --budget).")
  in
  let budget =
    Arg.(
      value & opt float 0.
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:"Stop after this much wall clock (0 = no time box).")
  in
  let plant =
    Arg.(
      value & flag
      & info [ "plant" ]
          ~doc:
            "Install the built-in planted fault (test-only perturbation of \
             the Traj fast path) so the shrinker and fixture pipeline can \
             be exercised on a clean tree.")
  in
  let checks =
    Arg.(
      value
      & opt_all string []
      & info [ "check" ] ~docv:"CHECK"
          ~doc:
            "Restrict to this differential check (repeatable): traj_vs_sim, \
             serve_vs_direct or sym_on_off.  Default: all three.")
  in
  let fixture_dir =
    Arg.(
      value & opt string "test/fixtures"
      & info [ "fixture-dir" ] ~docv:"DIR"
          ~doc:"Where minimized reproducer fixtures are written.")
  in
  let repro =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro" ] ~docv:"FILE"
          ~doc:"Replay one fixture file instead of fuzzing.")
  in
  let no_serve =
    Arg.(
      value & flag
      & info [ "no-serve" ]
          ~doc:
            "Skip the serve-vs-direct check's server (the check is then \
             skipped unless --port targets an external one).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: seeded random cells asserting Traj.meet \
          against Sim.run, symmetry on against off, and serve replies \
          against direct computation; mismatches are shrunk to committed \
          reproducer fixtures")
    Term.(
      const fuzz $ chaos_port_arg $ chaos_seed_arg $ cells $ budget $ plant
      $ checks $ fixture_dir $ repro $ no_serve $ chaos_queue_arg $ jobs_arg)

(* obs — flight-recorder client *)

let obs_scrape ~host ~port ~last =
  let req = Printf.sprintf {|{"type":"obs","last":%d}|} last in
  match Rv_serve.Loadgen.rpc ~host ~port req with
  | Error e -> Error e
  | Ok line -> (
      match Rv_obs.Json.parse line with
      | Error e -> Error (Printf.sprintf "unparseable obs reply: %s" e)
      | Ok j -> (
          match Rv_obs.Json.member "records" j with
          | Some (Rv_obs.Json.List rs) ->
              Ok (List.filter_map Rv_serve.Recorder.of_json rs)
          | _ ->
              Error
                (Printf.sprintf "unexpected obs reply: %s"
                   (String.sub line 0 (min 200 (String.length line))))))

let obs_record_line (r : Rv_serve.Recorder.record) =
  Printf.sprintf "#%-6d %-5s %-6s %-9s %-14s %8d us  %s" r.rr_id r.rr_kind
    r.rr_path r.rr_status
    (Rv_serve.Recorder.flag_to_string r.rr_flag)
    r.rr_total_us
    (String.concat " "
       (List.map
          (fun (name, _, dur) -> Printf.sprintf "%s=%.0fus" name dur)
          r.rr_stages))

let obs_cmd =
  let obs action host port last chrome interval =
    let scrape_or_die () =
      match obs_scrape ~host ~port ~last with
      | Ok rs -> rs
      | Error e ->
          Printf.eprintf "rv obs: %s\n%!" e;
          exit 1
    in
    match action with
    | `Tail ->
        let rs = scrape_or_die () in
        if rs = [] then print_endline "rv obs: recorder is empty"
        else List.iter (fun r -> print_endline (obs_record_line r)) rs
    | `Watch ->
        (* Poll the recorder, printing only records newer than the last
           one seen.  The obs probe itself is admin traffic and is never
           recorded, so watching does not pollute what it watches. *)
        let newest = ref min_int in
        let rec loop () =
          let rs = scrape_or_die () in
          List.iter
            (fun (r : Rv_serve.Recorder.record) ->
              if r.rr_id > !newest then begin
                newest := r.rr_id;
                print_endline (obs_record_line r)
              end)
            rs;
          flush stdout;
          Unix.sleepf interval;
          loop ()
        in
        loop ()
    | `Dump -> (
        let rs = scrape_or_die () in
        match chrome with
        | Some file ->
            let oc = open_out file in
            output_string oc
              (Rv_obs.Json.to_string (Rv_serve.Recorder.chrome_json rs));
            output_char oc '\n';
            close_out oc;
            Printf.printf "rv obs: wrote %d request lane(s) to %s\n%!"
              (List.length rs) file
        | None ->
            List.iter
              (fun r ->
                print_endline
                  (Rv_obs.Json.to_string (Rv_serve.Recorder.to_json r)))
              rs)
  in
  let action =
    Arg.(
      value
      & pos 0 (enum [ ("tail", `Tail); ("watch", `Watch); ("dump", `Dump) ])
          `Tail
      & info [] ~docv:"ACTION"
          ~doc:
            "$(b,tail) prints the retained records once; $(b,watch) polls \
             and prints new ones as they appear; $(b,dump) emits records as \
             JSON lines, or a Chrome trace with $(b,--chrome).")
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Server host.")
  in
  let last =
    Arg.(
      value & opt int 64
      & info [ "last" ] ~docv:"N"
          ~doc:"Fetch at most the newest N records (server caps at 4096).")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "With $(b,dump): write a Chrome/Perfetto trace, one lane per \
             request with its stage waterfall, instead of JSON lines.")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Poll period for $(b,watch).")
  in
  Cmd.v
    (Cmd.info "obs"
       ~doc:
         "Inspect a running rv serve's anomaly flight recorder: tail or \
          watch the retained requests, or dump them as a Chrome trace of \
          per-stage waterfalls")
    Term.(const obs $ action $ host $ port_arg $ last $ chrome $ interval)

(* version *)

let version_cmd =
  let version json =
    let fields = Rv_serve.Server.version_fields () in
    if json then
      print_endline
        (Rv_obs.Json.to_string
           (Rv_obs.Json.Obj
              (List.filter
                 (fun (k, _) -> not (String.equal k "status"))
                 fields)))
    else begin
      Printf.printf "rv %s (ocaml %s, profile %s)\n" Rv_serve.Build_meta.version
        Rv_serve.Build_meta.ocaml_version Rv_serve.Build_meta.profile;
      Printf.printf "index format: v%d\n" Rv_index.Format.version;
      let features =
        match List.assoc_opt "features" fields with
        | Some (Rv_obs.Json.List fs) ->
            List.filter_map
              (function Rv_obs.Json.Str s -> Some s | _ -> None)
              fs
        | _ -> []
      in
      Printf.printf "features: %s\n" (String.concat ", " features)
    end
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Print as one JSON object.") in
  Cmd.v
    (Cmd.info "version" ~doc:"Print the build's version and feature flags")
    Term.(const version $ json)

let () =
  (* RV_DEBUG=1 surfaces per-meeting simulator events on stderr. *)
  if Sys.getenv_opt "RV_DEBUG" <> None then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  let doc = "deterministic rendezvous in networks (Miller & Pelc, PODC 2014)" in
  let info = Cmd.info "rv" ~version:Rv_serve.Build_meta.version ~doc in
  exit (Cmd.eval (Cmd.group info [ run_cmd; trace_cmd; sweep_cmd; explore_cmd; lb_cmd; exp_cmd; selftest_cmd; async_cmd; gather_cmd; lint_cmd; dot_cmd; bake_cmd; serve_cmd; loadgen_cmd; chaos_cmd; fuzz_cmd; obs_cmd; version_cmd ]))

module Json = Rv_obs.Json
module Loadgen = Rv_serve.Loadgen
module Clock = Rv_serve.Clock

type fit = {
  f_n : int;
  f_mean : float;
  f_slope_per_s : float;
  f_first : float;
  f_last : float;
  f_growth : float;
}

let fit_line samples =
  match samples with
  | [] -> { f_n = 0; f_mean = 0.; f_slope_per_s = 0.; f_first = 0.; f_last = 0.; f_growth = 0. }
  | (t0, v0) :: _ ->
      let n = List.length samples in
      let tl, vl = List.fold_left (fun _ s -> s) (t0, v0) samples in
      (* Below two points or over a zero time range there is no line. *)
      let slope =
        match Rv_util.Stats.linear_fit samples with
        | _, b -> b
        | exception Invalid_argument _ -> 0.
      in
      {
        f_n = n;
        f_mean = List.fold_left (fun a (_, v) -> a +. v) 0. samples /. float_of_int n;
        f_slope_per_s = slope;
        f_first = v0;
        f_last = vl;
        f_growth = slope *. (tl -. t0);
      }

let flat ?(drift_frac = 0.25) ?(floor = 16_384.) f =
  f.f_growth <= Float.max (drift_frac *. Float.abs f.f_mean) floor

type gauge_verdict = { gv_family : string; gv_fit : fit; gv_flat : bool }

type report = {
  r_duration_s : float;
  r_samples : int;
  r_clean_requests : int;
  r_hostile_runs : int;
  r_failures : string list;
  r_gauges : gauge_verdict list;
  r_queue_settled : bool;
  r_stuck_connections : int;
  r_final_p99_us : int;
  r_pass : bool;
}

(* The gauges a leak shows up in.  Queue depth and connections are
   checked as final-state assertions instead — their healthy shape is
   sawtooth, not flat. *)
let drift_gauges = [ "rv_serve_gc_heap_words"; "rv_serve_gc_top_heap_words" ]

(* Drop the leading fifth of a series: server warmup (cache fill, first
   heavy sweeps, window buckets) legitimately grows the heap and would
   read as drift. *)
let post_warmup samples =
  let n = List.length samples in
  let drop = n / 5 in
  List.filteri (fun i _ -> i >= drop) samples

let geti j name = Option.bind (Json.member name j) Json.to_int

let run ?(sample_period_s = 1.0) ?(drift_frac = 0.25) ~host ~port ~duration_s
    ~seed () =
  let env = { Scenario.host; port; seed } in
  (* Fail fast when there is no server to soak. *)
  match Loadgen.rpc ~host ~port {|{"type":"health"}|} with
  | Error e -> Error ("soak: server unreachable: " ^ e)
  | Ok _ ->
      let stop = Atomic.make false in
      (* Mutated only by the workload thread; read after the join. *)
      let clean_requests = ref 0 in
      let hostile_runs = ref 0 in
      let wl_failures = ref [] in
      let workload () =
        let rec go iter =
          if Atomic.get stop then ()
          else begin
            (match
               Loadgen.run ~host ~port ~conns:2 ~requests:40
                 ~seed:(seed + iter) ~mix:Loadgen.Cached ()
             with
            | Ok s -> clean_requests := !clean_requests + s.Loadgen.requests
            | Error e -> wl_failures := ("loadgen: " ^ e) :: !wl_failures);
            if not (Atomic.get stop) then begin
              let name =
                List.nth Scenario.names (iter mod List.length Scenario.names)
              in
              incr hostile_runs;
              match Scenario.run_one env name with
              | Ok o ->
                  if not o.Scenario.o_passed then
                    wl_failures :=
                      (o.Scenario.o_name ^ ": " ^ o.Scenario.o_detail)
                      :: !wl_failures
              | Error e -> wl_failures := e :: !wl_failures
            end;
            go (iter + 1)
          end
        in
        go 0
      in
      let wt =
        Thread.create
          (fun () ->
            try workload ()
            with exn ->
              wl_failures :=
                ("workload thread: " ^ Printexc.to_string exn) :: !wl_failures)
          ()
      in
      (* Sampling loop on this thread; newest sample first. *)
      let t0 = Clock.now_s () in
      let samples = ref [] in
      let scrape_failures = ref [] in
      let rec sample_loop () =
        let now = Clock.now_s () in
        if now -. t0 >= duration_s then ()
        else begin
          (match Scrape.fetch ~host ~port with
          | Ok s -> samples := (now -. t0, s) :: !samples
          | Error e -> scrape_failures := ("scrape: " ^ e) :: !scrape_failures);
          Thread.delay sample_period_s;
          sample_loop ()
        end
      in
      sample_loop ();
      Atomic.set stop true;
      Thread.join wt;
      let elapsed = Clock.now_s () -. t0 in
      let samples = List.rev !samples in
      let series family =
        List.filter_map
          (fun (t, s) -> Option.map (fun v -> (t, v)) (Scrape.value s family))
          samples
      in
      let gauges =
        List.map
          (fun family ->
            let f = fit_line (post_warmup (series family)) in
            { gv_family = family; gv_fit = f; gv_flat = flat ~drift_frac f })
          drift_gauges
      in
      (* Final-state assertions straight from the health probe: the
         queue must have drained and nothing but this probe may remain
         in the registry. *)
      let probe_final () =
        match Loadgen.rpc ~host ~port {|{"type":"health"}|} with
        | Error _ -> (false, -1)
        | Ok reply -> (
            match Json.parse reply with
            | Error _ -> (false, -1)
            | Ok j -> (
                match (geti j "queue_depth", geti j "active_connections") with
                | Some q, Some a -> (q = 0, max 0 (a - 1))
                | _ -> (false, -1)))
      in
      (* The workload's last connections close client-side a beat before
         the server unregisters them; stuck means still registered after
         a settle grace, not caught mid-teardown. *)
      let queue_settled, stuck =
        let deadline = Clock.now_s () +. 5. in
        let rec settle () =
          match probe_final () with
          | true, 0 -> (true, 0)
          | state ->
              if Clock.now_s () >= deadline then state
              else begin
                Thread.delay 0.05;
                settle ()
              end
        in
        settle ()
      in
      let contract_failure =
        match Scenario.contract env with
        | Ok _ -> []
        | Error e -> [ "final contract: " ^ e ]
      in
      let final_p99 =
        match samples with
        | [] -> 0
        | _ ->
            let _, last = List.nth samples (List.length samples - 1) in
            (match
               Scrape.value
                 ~labels:
                   [
                     ("kind", "all"); ("path", "all"); ("window", "1m");
                     ("quantile", "0.99");
                   ]
                 last "rv_serve_latency_us"
             with
            | Some v -> int_of_float v
            | None -> 0)
      in
      let failures =
        List.rev !wl_failures @ List.rev !scrape_failures @ contract_failure
      in
      let n_samples = List.length samples in
      let no_failures = match failures with [] -> true | _ -> false in
      let pass =
        no_failures && n_samples >= 3 && queue_settled && stuck = 0
        && List.for_all (fun g -> g.gv_flat) gauges
      in
      Ok
        {
          r_duration_s = elapsed;
          r_samples = n_samples;
          r_clean_requests = !clean_requests;
          r_hostile_runs = !hostile_runs;
          r_failures = failures;
          r_gauges = gauges;
          r_queue_settled = queue_settled;
          r_stuck_connections = stuck;
          r_final_p99_us = final_p99;
          r_pass = pass;
        }

let fit_json f =
  Json.Obj
    [
      ("n", Json.Int f.f_n);
      ("mean", Json.Float f.f_mean);
      ("slope_per_s", Json.Float f.f_slope_per_s);
      ("first", Json.Float f.f_first);
      ("last", Json.Float f.f_last);
      ("growth", Json.Float f.f_growth);
    ]

let report_json r =
  Json.Obj
    [
      ("duration_s", Json.Float r.r_duration_s);
      ("samples", Json.Int r.r_samples);
      ("clean_requests", Json.Int r.r_clean_requests);
      ("hostile_runs", Json.Int r.r_hostile_runs);
      ("failures", Json.List (List.map (fun f -> Json.Str f) r.r_failures));
      ( "gauges",
        Json.List
          (List.map
             (fun g ->
               Json.Obj
                 [
                   ("family", Json.Str g.gv_family);
                   ("fit", fit_json g.gv_fit);
                   ("flat", Json.Bool g.gv_flat);
                 ])
             r.r_gauges) );
      ("queue_settled", Json.Bool r.r_queue_settled);
      ("stuck_connections", Json.Int r.r_stuck_connections);
      ("final_p99_us", Json.Int r.r_final_p99_us);
      ("pass", Json.Bool r.r_pass);
    ]

let print_report out r =
  Printf.fprintf out
    "soak %.1fs: %d samples, %d clean requests, %d hostile runs\n"
    r.r_duration_s r.r_samples r.r_clean_requests r.r_hostile_runs;
  List.iter
    (fun g ->
      Printf.fprintf out "  %-28s mean %.0f  growth %+.0f  %s\n" g.gv_family
        g.gv_fit.f_mean g.gv_fit.f_growth
        (if g.gv_flat then "flat" else "DRIFTING"))
    r.r_gauges;
  Printf.fprintf out "  queue settled: %b  stuck connections: %d  p99(1m) %dus\n"
    r.r_queue_settled r.r_stuck_connections r.r_final_p99_us;
  List.iter (fun f -> Printf.fprintf out "  FAIL %s\n" f) r.r_failures;
  Printf.fprintf out "soak verdict: %s\n" (if r.r_pass then "PASS" else "FAIL")

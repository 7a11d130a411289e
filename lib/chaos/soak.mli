(** Soak mode: mixed hostile + clean workload under telemetry watch.

    One thread alternates clean loadgen bursts with scenarios from the
    {!Scenario} catalog while the main thread scrapes the server's
    Prometheus exposition on an interval.  At the end a least-squares
    drift line is fitted per watched gauge (Gc heap, peak heap) over the
    post-warmup samples; the run fails on non-flat memory, an unsettled
    queue, stuck connections, or any scenario/workload failure.  The
    verdict lands in [BENCH_chaos.json] via {!report_json}. *)

type fit = {
  f_n : int;  (** samples fitted (after warmup drop) *)
  f_mean : float;
  f_slope_per_s : float;
  f_first : float;
  f_last : float;
  f_growth : float;  (** slope x fitted-window length *)
}

val fit_line : (float * float) list -> fit
(** Least squares ({!Rv_util.Stats.linear_fit}) over [(seconds, value)]
    samples; slope 0 when fewer than two samples or a zero time range. *)

val flat : ?drift_frac:float -> ?floor:float -> fit -> bool
(** Flat iff the fitted growth over the window stays within
    [max (drift_frac *. mean) floor] (defaults 0.25 and 16384 — a
    quarter of the mean, floored well above allocator noise in words). *)

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
  r_final_p99_us : int;  (** 1m all-queries window at the end *)
  r_pass : bool;
}

val run :
  ?sample_period_s:float ->
  ?drift_frac:float ->
  host:string ->
  port:int ->
  duration_s:float ->
  seed:int ->
  unit ->
  (report, string) result
(** Soak for at least [duration_s] seconds ([Error] only when the
    server is unreachable at the start; everything after that is
    reported in [r_failures]/[r_pass]).  The hostile rotation cycles
    through the whole {!Scenario} catalog. *)

val report_json : report -> Rv_obs.Json.t
val print_report : out_channel -> report -> unit

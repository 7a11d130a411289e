module Json = Rv_obs.Json
module Counter = Rv_obs.Counter
module Histogram = Rv_obs.Histogram
module Window = Rv_obs.Window
module Gc_snapshot = Rv_obs.Gc_snapshot
module Prom = Rv_obs.Export_prometheus
module Obs = Rv_obs.Obs

type config = {
  host : string;
  port : int;
  jobs : int;
  cache_bytes : int;
  queue_cap : int;
  default_deadline_ms : int option;
  index_path : string option;
  index_backfill : bool;
  backfill_flush_s : float;
  telemetry : bool;
  recorder_cap : int;
  slow_us : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    jobs = 1;
    cache_bytes = 8 * 1024 * 1024;
    queue_cap = 64;
    default_deadline_ms = None;
    index_path = None;
    index_backfill = false;
    backfill_flush_s = 5.0;
    telemetry = true;
    recorder_cap = 256;
    slow_us = 10_000;
  }

(* One accepted client.  [inflight] counts jobs handed to the dispatcher
   whose replies have not been written yet; the connection thread waits
   for it to reach zero before closing the socket, so the dispatcher
   never writes to a recycled file descriptor. *)
type conn = {
  fd : Unix.file_descr;
  oc : out_channel;
  wlock : Mutex.t;
  inflight : int Atomic.t;
  dead : bool Atomic.t;
      (** set on the first failed reply write (EPIPE / short write after
          an abrupt client disconnect): later writes are skipped and the
          reader loop exits at the next frame boundary *)
}

type job = {
  j_id : int option;
  j_key : string;
  j_query : Proto.query;
  j_deadline_us : float option;
  j_sp : Rspan.t;
  j_conn : conn;
}

(* Every server event counter, declared once in [metrics]-reply order:
   its reply field and the HELP of its Prometheus family
   [rv_serve_<field>_total].  Each bump also feeds the process-global
   counter [serve.<field>] that [rv serve --metrics] prints. *)
let counters =
  [|
    ("requests", "Requests received");
    ("ok", "Successful replies");
    ("errors", "Error replies");
    ("bad_request", "Malformed requests");
    ("overloaded", "Requests shed by admission control");
    ("deadline_exceeded", "Requests past their deadline");
    ( "write_failures",
      "Replies that failed to write (client disconnected first)" );
    ("cache_hits", "LRU result-cache hits");
    ("cache_misses", "LRU result-cache misses");
    ("index_hits", "Baked-index hits");
    ("index_misses", "Baked-index misses");
    ("index_backfilled", "Records added by backfill");
  |]

(* Each counter's index in [counters], looked up by field once at module
   initialisation, so a misspelt field fails at start-up. *)
module Slot = struct
  let of_field f =
    Option.get (Array.find_index (fun (f', _) -> String.equal f f') counters)

  let requests = of_field "requests"
  let ok = of_field "ok"
  let errors = of_field "errors"
  let bad_request = of_field "bad_request"
  let overloaded = of_field "overloaded"
  let deadline_exceeded = of_field "deadline_exceeded"
  let write_failures = of_field "write_failures"
  let cache_hits = of_field "cache_hits"
  let cache_misses = of_field "cache_misses"
  let index_hits = of_field "index_hits"
  let index_misses = of_field "index_misses"
  let index_backfilled = of_field "index_backfilled"
end

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  srv_port : int;
  cache : Cache.t;
  queue : job Admission.t;
  registry : Registry.t;
  pool : Rv_engine.Pool.t option;
  stop_flag : bool Atomic.t;
  joined : bool Atomic.t;
  conns_lock : Mutex.t;
  mutable conn_threads : Thread.t list;
  mutable acceptor : Thread.t option;
  mutable dispatcher : Thread.t option;
  started_us : float;
  (* The [metrics] reply's totals are per server: the Rv_obs registries
     are process-global (tests run several servers in one process), so
     the reply must come from state scoped to this server.  [counts.(i)]
     backs [counters.(i)], [globals.(i)] is its [serve.<field>], and the
     latency totals are reply-only (no Prometheus family). *)
  counts : int Atomic.t array;
  globals : Counter.t array;
  latency_count : int Atomic.t;
  latency_max_us : int Atomic.t;
  queue_wait_max_us : int Atomic.t;
  (* Process-global histograms, printed by [rv serve --metrics]. *)
  h_latency : Histogram.t;
  h_queue_wait : Histogram.t;
  (* Always-on telemetry (per-server for the same registry-scoping
     reason as the totals above): a request-id sequence, sliding
     latency windows over query replies — one per (kind, answer path),
     with the "all" aggregate derived at read time via
     [Window.stats_many] so the hot path pays one observe — and the
     anomaly flight recorder. *)
  req_seq : int Atomic.t;
  windows : (string * string * Window.t) list;
  recorder : Recorder.t;
  (* The live index.  Swapped whole on reload/backfill; readers of a
     displaced generation keep answering from the old mapping, so a swap
     is never observable mid-lookup. *)
  index : Rv_index.Reader.t option Atomic.t;
  backfill_lock : Mutex.t;
  backfill_pending : (string, int array) Hashtbl.t;
  backfill_stop : bool Atomic.t;
  mutable backfill_thread : Thread.t option;
}

let port t = t.srv_port

let bump ?(by = 1) t slot =
  ignore (Atomic.fetch_and_add t.counts.(slot) by);
  Counter.add t.globals.(slot) by

(* --- writing ----------------------------------------------------------- *)

(* A failed reply write is a disconnect, not an error: the client left
   between request and reply (SIGPIPE is ignored process-wide at
   [start], so EPIPE and short writes surface here as exceptions).  The
   connection is marked dead — further replies are skipped, the reader
   loop exits at its next frame boundary and the normal teardown path
   unregisters the registry entry — and the write-failure counter
   records it.  The dispatcher never sees any of this. *)
let write_conn t conn line =
  if not (Atomic.get conn.dead) then begin
    (* rv_lint: allow R7 -- the per-connection write lock exists precisely
       to serialise whole reply frames onto the socket; holding it across
       the buffered write + flush is the framing guarantee, and it is
       per-connection, so one slow client stalls only itself *)
    Mutex.lock conn.wlock;
    (try
       output_string conn.oc line;
       output_char conn.oc '\n';
       flush conn.oc
     with Sys_error _ | Unix.Unix_error _ ->
       Atomic.set conn.dead true;
       bump t Slot.write_failures);
    Mutex.unlock conn.wlock
  end

let new_rspan t =
  Rspan.create
    ~id:(Atomic.fetch_and_add t.req_seq 1)
    ~recv_us:(Clock.now_us ()) ~enabled:t.cfg.telemetry ()

let is_query_kind kind = String.equal kind "worst" || String.equal kind "run"

let window_for t ~kind ~path =
  List.find_map
    (fun (k, p, w) ->
      if String.equal k kind && String.equal p path then Some w else None)
    t.windows

(* The aggregate over every query reply — including shed/error paths,
   which have windows of their own precisely so this derived view keeps
   the same population the old single "all" window had. *)
let stats_all t ~now_s ~horizon_s =
  Window.stats_many (List.map (fun (_, _, w) -> w) t.windows) ~now_s ~horizon_s

(* Slow means "used more than half its budget": half the request's
   deadline window when one was set, else the configured threshold. *)
let classify t sp ~code =
  match code with
  | Some Proto.Overloaded -> Recorder.Shed
  | Some _ -> Recorder.Errored
  | None ->
      let total = Rspan.total_us sp in
      let slow =
        match Rspan.deadline_us sp with
        | Some d -> float_of_int total > (d -. Rspan.recv_us sp) /. 2.
        | None -> total > t.cfg.slow_us
      in
      if slow then Recorder.Slow
      else if
        Option.is_some (Atomic.get t.index)
        && String.equal (Rspan.path sp) "sim"
      then Recorder.Index_fallback
      else Recorder.Healthy

let record_of sp ~status ~flag =
  let recv = Rspan.recv_us sp in
  {
    Recorder.rr_id = Rspan.id sp;
    rr_kind = Rspan.kind sp;
    rr_path = Rspan.path sp;
    rr_status = status;
    rr_flag = flag;
    rr_recv_us = recv;
    rr_total_us = Rspan.total_us sp;
    rr_stages =
      List.map (fun (n, t0, t1) -> (n, t0 -. recv, t1 -. t0)) (Rspan.stages sp);
  }

(* Stamp completion; feed the latency totals and the whole-process
   histogram (always) and — for query requests with telemetry on — the
   sliding windows and the flight recorder.  Admin probes stay out of
   both: they answer inline in microseconds and the `rv obs` poller's
   own scrapes must not flood the ring it is reading. *)
let finalize t sp ~status ~code =
  let now_us = Clock.now_us () in
  Rspan.finish sp ~now_us;
  let total = Rspan.total_us sp in
  Histogram.observe_t t.h_latency total;
  Atomic.incr t.latency_count;
  Histogram.atomic_max t.latency_max_us total;
  let kind = Rspan.kind sp in
  if t.cfg.telemetry && is_query_kind kind then begin
    let now_s = int_of_float (now_us /. 1_000_000.) in
    (match window_for t ~kind ~path:(Rspan.path sp) with
    | Some w -> Window.observe w ~now_s total
    | None -> ());
    Recorder.add t.recorder (record_of sp ~status ~flag:(classify t sp ~code))
  end

let debug_fields sp =
  let recv = Rspan.recv_us sp in
  [
    ( "debug",
      Json.Obj
        [
          ("req_id", Json.Int (Rspan.id sp));
          ("kind", Json.Str (Rspan.kind sp));
          ("path", Json.Str (Rspan.path sp));
          ("total_us", Json.Int (Rspan.total_us sp));
          ( "stages",
            Json.List
              (List.map
                 (fun (n, t0, t1) ->
                   Json.Obj
                     [
                       ("stage", Json.Str n);
                       ("start_us", Json.Float (t0 -. recv));
                       ("dur_us", Json.Float (t1 -. t0));
                     ])
                 (Rspan.stages sp)) );
        ] );
  ]

(* Debug timing fields are appended at render time, after the cached /
   canonical field list — so they never enter the cache and replies
   without [debug:true] stay byte-identical across paths. *)
let reply_ok t conn ~sp ~id fields =
  bump t Slot.ok;
  finalize t sp ~status:"ok" ~code:None;
  let fields = if Rspan.debug sp then fields @ debug_fields sp else fields in
  write_conn t conn (Proto.ok_line ~id fields)

let reply_error t conn ~sp ~id ?extra code msg =
  bump t Slot.errors;
  (match code with
  | Proto.Bad_request -> bump t Slot.bad_request
  | Proto.Overloaded -> bump t Slot.overloaded
  | Proto.Deadline_exceeded -> bump t Slot.deadline_exceeded
  | Proto.Failed_rendezvous | Proto.Internal -> ());
  if String.equal (Rspan.path sp) "none" then
    Rspan.set_path sp
      (match code with Proto.Overloaded -> "shed" | _ -> "error");
  finalize t sp ~status:(Proto.code_to_string code) ~code:(Some code);
  let extra =
    if Rspan.debug sp then Option.value extra ~default:[] @ debug_fields sp
    else Option.value extra ~default:[]
  in
  write_conn t conn (Proto.error_line ~id ~extra code msg)

(* --- index ------------------------------------------------------------- *)

(* [f] of the live index [r], 0 when none is loaded. *)
let index_stat r f = match r with Some r -> f r | None -> 0

(* Consult the baked index.  A hit re-renders through the same
   [Handler.fields_of_vals] printer the compute path uses, so the reply
   bytes cannot depend on which path answered.  Decode failures (stale
   kind tag, wrong width) count as misses and fall through.
   [count_miss:false] is for the dispatcher's re-check of an already
   counted-as-missed request, so each request scores at most one miss. *)
let index_answer ?(count_miss = true) t q key =
  match Atomic.get t.index with
  | None -> None
  | Some reader -> (
      match Rv_index.Reader.lookup reader key with
      | None ->
          if count_miss then bump t Slot.index_misses;
          None
      | Some values -> (
          match Handler.vals_of_values q values with
          | None ->
              if count_miss then bump t Slot.index_misses;
              None
          | Some v ->
              bump t Slot.index_hits;
              Some (Handler.fields_of_vals q v)))

let reload_index t =
  match t.cfg.index_path with
  | None -> Error "no index path configured"
  | Some path -> (
      match Rv_index.Reader.open_ path with
      | Ok r ->
          Atomic.set t.index (Some r);
          Ok ()
      | Error msg -> Error msg)

(* Misses evaluated by the dispatcher accumulate here (bounded) until
   the backfill thread folds them, together with the current index's
   entries, into generation+1 and swaps the reader. *)
let backfill_cap = 4096

let note_backfill t key values =
  if t.cfg.index_backfill && Option.is_some t.cfg.index_path then begin
    Mutex.lock t.backfill_lock;
    if
      Hashtbl.length t.backfill_pending < backfill_cap
      && not (Hashtbl.mem t.backfill_pending key)
    then Hashtbl.add t.backfill_pending key values;
    Mutex.unlock t.backfill_lock
  end

let publish_backfill t =
  match t.cfg.index_path with
  | None -> ()
  | Some path -> (
      let pending =
        Mutex.lock t.backfill_lock;
        let kvs =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.backfill_pending []
        in
        Hashtbl.reset t.backfill_pending;
        Mutex.unlock t.backfill_lock;
        (* Hashtbl fold order is unspecified; sort so the writer's input
           (and therefore the published file) is deterministic. *)
        List.sort (fun (a, _) (b, _) -> Rv_index.Key.compare a b) kvs
      in
      match pending with
      | [] -> ()
      | _ :: _ -> (
          let existing, generation, meta =
            match Atomic.get t.index with
            | Some r ->
                ( Rv_index.Reader.entries r,
                  Rv_index.Reader.generation r,
                  Rv_index.Reader.meta r )
            | None -> ([], 0, "rv_serve backfill")
          in
          let module SS = Set.Make (String) in
          let have =
            List.fold_left (fun s (k, _) -> SS.add k s) SS.empty existing
          in
          let fresh = List.filter (fun (k, _) -> not (SS.mem k have)) pending in
          match fresh with
          | [] -> ()
          | _ :: _ -> (
              match
                Rv_index.Writer.write ~path ~generation:(generation + 1) ~meta
                  (existing @ fresh)
              with
              | Error msg ->
                  Printf.eprintf "rv serve: backfill write failed: %s\n%!" msg
              | Ok _ -> (
                  match Rv_index.Reader.open_ path with
                  | Error msg ->
                      Printf.eprintf "rv serve: backfill reload failed: %s\n%!"
                        msg
                  | Ok r ->
                      Atomic.set t.index (Some r);
                      bump t Slot.index_backfilled ~by:(List.length fresh)))))

let backfill_loop t =
  let interval =
    if t.cfg.backfill_flush_s > 0. then t.cfg.backfill_flush_s else 5.
  in
  (* Nap in small slices so a drain never waits long for the thread; no
     wall-clock reads needed, only accumulated sleep. *)
  let slice = 0.02 in
  let rec loop () =
    if not (Atomic.get t.backfill_stop) then begin
      let rec nap remaining =
        if remaining > 0. && not (Atomic.get t.backfill_stop) then begin
          Thread.delay (if remaining < slice then remaining else slice);
          nap (remaining -. slice)
        end
      in
      nap interval;
      if not (Atomic.get t.backfill_stop) then publish_backfill t;
      loop ()
    end
  in
  loop ()

(* --- admin replies ----------------------------------------------------- *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  m > 0 && go 0

let feature_flags () =
  List.filter_map
    (fun (flag, on) -> if on then Some (Json.Str flag) else None)
    [
      ("traj-cache", true);
      ( "tsan",
        contains_sub Build_meta.profile "tsan"
        || contains_sub Build_meta.context "tsan" );
    ]

let version_fields () =
  [
    ("status", Json.Str "ok");
    ("type", Json.Str "version");
    ("version", Json.Str Build_meta.version);
    ("ocaml", Json.Str Build_meta.ocaml_version);
    ("profile", Json.Str Build_meta.profile);
    ("index_format", Json.Int Rv_index.Format.version);
    ("features", Json.List (feature_flags ()));
  ]

let index_status_fields t =
  let r = Atomic.get t.index in
  [
    ("index_loaded", Json.Bool (Option.is_some r));
    ("index_generation", Json.Int (index_stat r Rv_index.Reader.generation));
    ("index_records", Json.Int (index_stat r Rv_index.Reader.record_count));
  ]

(* Sliding-window latency summaries.  These replaced fields computed
   from the unbounded whole-process histogram: a cold-start or burst
   spike now ages out of the percentiles after the horizon instead of
   skewing them for the life of the process ([latency_count] /
   [latency_max_us] keep lifetime semantics — they are the monotone
   totals scrape checks rely on). *)
let horizons = [ ("10s", 10); ("1m", 60); ("5m", 300) ]

let window_fields prefix (st : Window.stats) =
  [
    (prefix ^ "_count", Json.Int st.Window.w_count);
    (prefix ^ "_p50_us", Json.Int st.Window.w_p50);
    (prefix ^ "_p90_us", Json.Int st.Window.w_p90);
    (prefix ^ "_p99_us", Json.Int st.Window.w_p99);
    (prefix ^ "_max_us", Json.Int st.Window.w_max);
  ]

let health_fields t =
  let now_s = int_of_float (Clock.now_s ()) in
  let w1m = stats_all t ~now_s ~horizon_s:60 in
  [
    ("status", Json.Str "ok");
    ("type", Json.Str "health");
    ("draining", Json.Bool (Admission.draining t.queue));
    ("queue_depth", Json.Int (Admission.depth t.queue));
    ("queue_cap", Json.Int t.cfg.queue_cap);
    ("jobs", Json.Int (max 1 t.cfg.jobs));
    ( "pool_pending",
      Json.Int
        (match t.pool with Some p -> Rv_engine.Pool.pending p | None -> 0) );
    ("active_connections", Json.Int (Registry.active t.registry));
    ("total_connections", Json.Int (Registry.total t.registry));
    ("cache_entries", Json.Int (Cache.stats t.cache).Cache.entries);
    ("cache_bytes", Json.Int (Cache.stats t.cache).Cache.bytes);
    ("lat1m_p50_us", Json.Int w1m.Window.w_p50);
    ("lat1m_p99_us", Json.Int w1m.Window.w_p99);
    ("uptime_us", Json.Int (int_of_float (Clock.now_us () -. t.started_us)));
  ]
  @ index_status_fields t

let metrics_fields t =
  let cs = Cache.stats t.cache in
  let now_s = int_of_float (Clock.now_s ()) in
  let total field cell = (field, Json.Int (Atomic.get cell)) in
  [ ("status", Json.Str "ok"); ("type", Json.Str "metrics") ]
  @ Array.to_list (Array.map2 (fun (f, _) n -> total f n) counters t.counts)
  @ [
      ("cache_entries", Json.Int cs.Cache.entries);
      ("cache_bytes", Json.Int cs.Cache.bytes);
      ("cache_evictions", Json.Int cs.Cache.evictions);
      ("queue_depth", Json.Int (Admission.depth t.queue));
      total "latency_count" t.latency_count;
      total "latency_max_us" t.latency_max_us;
      total "queue_wait_max_us" t.queue_wait_max_us;
    ]
  @ List.concat_map
      (fun (tag, horizon_s) ->
        window_fields ("lat" ^ tag) (stats_all t ~now_s ~horizon_s))
      horizons

(* --- Prometheus exposition --------------------------------------------- *)

(* Every value is read when the probe asks, so a scrape is as current as
   the reply it travels in. *)
let prometheus_body t =
  let gc = Gc_snapshot.take () in
  let cs = Cache.stats t.cache in
  let r = Atomic.get t.index in
  let single typ (name, help, v) =
    Prom.single ("rv_serve_" ^ name) help typ (float_of_int v)
  in
  let family fname help typ samples =
    { Prom.fname = "rv_serve_" ^ fname; help; typ; samples }
  in
  let sample labels v = { Prom.labels; value = float_of_int v } in
  let now_s = int_of_float (Clock.now_s ()) in
  let series =
    List.concat_map
      (fun (kind, path, stats) ->
        List.map
          (fun (tag, horizon_s) ->
            let labels = [ ("kind", kind); ("path", path); ("window", tag) ] in
            (labels, stats ~now_s ~horizon_s))
          horizons)
      (("all", "all", stats_all t)
      :: List.map (fun (k, p, w) -> (k, p, Window.stats w)) t.windows)
  in
  let per_window f = List.concat_map f series in
  let healthy, flagged, _, _ = Recorder.counts t.recorder in
  Prom.render
    (List.map (single Prom.Counter_t)
       (Array.to_list
          (Array.map2
             (fun (field, help) n -> (field ^ "_total", help, Atomic.get n))
             counters t.counts)
       @ [
           ( "cache_evictions_total",
             "LRU result-cache evictions",
             cs.Cache.evictions );
           ( "connections_total",
             "Connections accepted since start",
             Registry.total t.registry );
           ( "gc_minor_collections_total",
             "Minor GC collections (process)",
             gc.Gc_snapshot.minor_collections );
           ( "gc_major_collections_total",
             "Major GC collections (process)",
             gc.Gc_snapshot.major_collections );
           ( "gc_compactions_total",
             "Heap compactions (process)",
             gc.Gc_snapshot.compactions );
         ])
    @ List.map (single Prom.Gauge_t)
        [
          ( "gc_heap_words",
            "Major heap size in words (process)",
            gc.Gc_snapshot.heap_words );
          ( "gc_top_heap_words",
            "Peak major heap size in words (process)",
            gc.Gc_snapshot.top_heap_words );
          ("queue_depth", "Admission queue depth", Admission.depth t.queue);
          ( "active_connections",
            "Open connections",
            Registry.active t.registry );
          ("cache_entries", "LRU result-cache entries", cs.Cache.entries);
          ("cache_bytes", "LRU result-cache bytes", cs.Cache.bytes);
          ( "index_loaded",
            "1 when a baked index is mmapped",
            index_stat r (fun _ -> 1) );
          ( "index_generation",
            "Generation of the live index",
            index_stat r Rv_index.Reader.generation );
          ( "index_records",
            "Records in the live index",
            index_stat r Rv_index.Reader.record_count );
          ( "uptime_seconds",
            "Seconds since server start",
            int_of_float ((Clock.now_us () -. t.started_us) /. 1e6) );
        ]
    @ [
        family "recorder_records" "Flight-recorder occupancy by class"
          Prom.Gauge_t
          [
            sample [ ("class", "healthy") ] healthy;
            sample [ ("class", "flagged") ] flagged;
          ];
        family "latency_us"
          "Reply latency quantiles over sliding windows (log2-bucket upper \
           bounds)"
          Prom.Summary_t
          (per_window (fun (labels, st) ->
               List.map
                 (fun (q, v) -> sample (("quantile", q) :: labels) v)
                 [
                   ("0.5", st.Window.w_p50);
                   ("0.9", st.Window.w_p90);
                   ("0.99", st.Window.w_p99);
                 ]));
        family "latency_us_count" "Observations inside each sliding window"
          Prom.Gauge_t
          (per_window (fun (l, st) -> [ sample l st.Window.w_count ]));
        family "latency_us_max" "Largest latency inside each sliding window"
          Prom.Gauge_t
          (per_window (fun (l, st) -> [ sample l st.Window.w_max ]));
      ])

(* The transport is one JSON object per line, so the exposition text
   travels inside the reply as a ["body"] string — `rv obs`/smoke
   scripts unwrap it before handing it to promtool-style checks. *)
let prometheus_fields t =
  [
    ("status", Json.Str "ok");
    ("type", Json.Str "metrics");
    ("format", Json.Str "prometheus");
    ("body", Json.Str (prometheus_body t));
  ]

let obs_fields t { Proto.o_last } =
  let records = Recorder.records ~last:o_last t.recorder in
  let healthy, flagged, evicted_healthy, evicted_flagged =
    Recorder.counts t.recorder
  in
  [
    ("status", Json.Str "ok");
    ("type", Json.Str "obs");
    ("telemetry", Json.Bool t.cfg.telemetry);
    ("recorder_cap", Json.Int (Recorder.cap t.recorder));
    ("healthy", Json.Int healthy);
    ("flagged", Json.Int flagged);
    ("evicted_healthy", Json.Int evicted_healthy);
    ("evicted_flagged", Json.Int evicted_flagged);
    ("records", Json.List (List.map Recorder.to_json records));
  ]

let admin_fields t = function
  | Proto.Health -> health_fields t
  | Proto.Metrics Proto.Fmt_json -> metrics_fields t
  | Proto.Metrics Proto.Fmt_prometheus -> prometheus_fields t
  | Proto.Version -> version_fields () @ index_status_fields t
  | Proto.Obs q -> obs_fields t q

(* --- dispatcher -------------------------------------------------------- *)

(* rv_lint: allow R5 -- the queue stage opens on the connection thread
   (serve_line) and closes here once the dispatcher dequeues the job *)
let process t job =
  let conn = job.j_conn in
  let sp = job.j_sp in
  (* One clock read serves the queue-wait histogram, the queue stage's
     close and the index stage's open. *)
  let dequeued_us = Clock.now_us () in
  Rspan.stage_end ~now_us:dequeued_us sp "queue";
  let waited = int_of_float (dequeued_us -. Rspan.recv_us sp) in
  Histogram.observe_t t.h_queue_wait waited;
  Histogram.atomic_max t.queue_wait_max_us waited;
  Rspan.stage_begin ~now_us:dequeued_us sp "index";
  let from_index = index_answer ~count_miss:false t job.j_query job.j_key in
  Rspan.stage_end sp "index";
  (match from_index with
  | Some fields ->
      (* A backfill or reload published the answer while this job
         queued. *)
      Rspan.set_path sp "index";
      reply_ok t conn ~sp ~id:job.j_id fields
  | None -> (
      Rspan.stage_begin sp "cache";
      let from_cache = Cache.find t.cache job.j_key in
      Rspan.stage_end sp "cache";
      match from_cache with
      | Some fields ->
          (* A concurrent identical request computed it while this one
             queued. *)
          bump t Slot.cache_hits;
          Rspan.set_path sp "cache";
          reply_ok t conn ~sp ~id:job.j_id fields
      | None -> (
          bump t Slot.cache_misses;
          Rspan.set_path sp "sim";
          Rspan.stage_begin sp "compute";
          let result =
            Handler.eval_vals ?pool:t.pool ~deadline_us:job.j_deadline_us
              job.j_query
          in
          Rspan.stage_end sp "compute";
          match result with
          | Ok v ->
              let fields = Handler.fields_of_vals job.j_query v in
              Cache.add t.cache job.j_key fields;
              note_backfill t job.j_key (Handler.values_of_vals v);
              reply_ok t conn ~sp ~id:job.j_id fields
          | Error (code, msg, extra) ->
              reply_error t conn ~sp ~id:job.j_id ~extra code msg)));
  Atomic.decr conn.inflight

let dispatch_loop t =
  let rec loop () =
    (* rv_lint: allow R7 -- Admission.pop's Condition.wait is the
       dispatcher's designed parking point when the queue is empty, not
       a stall while holding work *)
    match Admission.pop t.queue with
    | None -> ()
    | Some job ->
        process t job;
        loop ()
  in
  loop ()

(* --- connections ------------------------------------------------------- *)

let admin_kind = function
  | Proto.Health -> "health"
  | Proto.Metrics _ -> "metrics"
  | Proto.Version -> "version"
  | Proto.Obs _ -> "obs"

let serve_line t conn ~sp line =
  bump t Slot.requests;
  Obs.span ~cat:"serve" "serve.request" @@ fun () ->
  Rspan.stage_begin sp "parse";
  let parsed = Proto.parse line in
  Rspan.stage_end sp "parse";
  match parsed with
  | Error msg ->
      Rspan.set_kind sp "invalid";
      reply_error t conn ~sp ~id:None Proto.Bad_request msg
  | Ok req -> (
      Rspan.set_debug sp req.Proto.debug;
      match req.Proto.body with
      | `Admin a ->
          Rspan.set_kind sp (admin_kind a);
          Rspan.set_path sp "admin";
          reply_ok t conn ~sp ~id:req.Proto.id (admin_fields t a)
      | `Query q -> (
          let key = Proto.canonical_key q in
          Rspan.set_kind sp
            (match q with Proto.Worst _ -> "worst" | Proto.Run _ -> "run");
          (* index -> LRU cache -> simulation.  Index lookups are pure
             reads of an immutable mapping, so answering here on the
             connection thread is safe and skips the queue entirely. *)
          Rspan.stage_begin sp "index";
          let from_index = index_answer t q key in
          Rspan.stage_end sp "index";
          match from_index with
          | Some fields ->
              Rspan.set_path sp "index";
              reply_ok t conn ~sp ~id:req.Proto.id fields
          | None -> (
          Rspan.stage_begin sp "cache";
          let from_cache = Cache.find t.cache key in
          Rspan.stage_end sp "cache";
          match from_cache with
          | Some fields ->
              bump t Slot.cache_hits;
              Rspan.set_path sp "cache";
              reply_ok t conn ~sp ~id:req.Proto.id fields
          | None -> (
              let deadline_us =
                match (req.Proto.deadline_ms, t.cfg.default_deadline_ms) with
                | Some ms, _ | None, Some ms ->
                    Some (Rspan.recv_us sp +. (float_of_int ms *. 1000.))
                | None, None -> None
              in
              (match deadline_us with
              | Some d -> Rspan.set_deadline_us sp d
              | None -> ());
              let job =
                {
                  j_id = req.Proto.id;
                  j_key = key;
                  j_query = q;
                  j_deadline_us = deadline_us;
                  j_sp = sp;
                  j_conn = conn;
                }
              in
              Atomic.incr conn.inflight;
              (* The queue stage closes in [process] once the dispatcher
                 picks the job up — or right here when admission sheds it. *)
              let shed reason =
                Atomic.decr conn.inflight;
                Rspan.stage_end sp "queue";
                reply_error t conn ~sp ~id:req.Proto.id Proto.Overloaded reason
              in
              Rspan.stage_begin sp "queue";
              match Admission.submit t.queue job with
              | `Accepted -> ()
              | `Overloaded -> shed "admission queue full"
              | `Draining -> shed "server draining"))))

(* --- reading ------------------------------------------------------------ *)

(* Each connection reads through one buffer that [Unix.read] fills: a
   line is found by one scan of the filled range for its newline and
   copied out once.  The buffer holds [Proto.max_line_len + 1] bytes and
   is compacted before each fill, so a hostile peer cannot make us
   buffer more than that: a full buffer with no newline is a line that
   is too long, which is consumed to its newline and reported, so the
   connection survives. *)
type reader = {
  rfd : Unix.file_descr;
  buf : Bytes.t;
  mutable lo : int;  (** first byte not yet returned *)
  mutable scanned : int;
      (** [lo, scanned) holds no newline, so a line that arrives in many
          small reads is scanned once, not once per read *)
  mutable hi : int;  (** end of the filled range *)
}

let reader_of fd =
  {
    rfd = fd;
    buf = Bytes.create (Proto.max_line_len + 1);
    lo = 0;
    scanned = 0;
    hi = 0;
  }

(* The first newline in [buf] at or after [i] and before [hi]; [hi] when
   there is none. *)
let find_newline buf i hi =
  let i = ref i in
  while !i < hi && not (Char.equal (Bytes.unsafe_get buf !i) '\n') do
    incr i
  done;
  !i

(* Move the unread bytes to the front, then read once into the rest:
   the number of bytes read, 0 at EOF, -1 on a socket error.  [EINTR]
   is retried (the watched signals are blocked on this thread, so it is
   rare). *)
let rec fill r =
  if r.lo > 0 then begin
    let len = r.hi - r.lo in
    Bytes.blit r.buf r.lo r.buf 0 len;
    r.scanned <- r.scanned - r.lo;
    r.hi <- len;
    r.lo <- 0
  end;
  match Unix.read r.rfd r.buf r.hi (Bytes.length r.buf - r.hi) with
  | n ->
      r.hi <- r.hi + n;
      n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill r
  | exception Unix.Unix_error _ -> -1

(* Hand out [lo, stop) as a line and resume after [next]. *)
let take r stop next =
  let line = Bytes.sub_string r.buf r.lo (stop - r.lo) in
  r.lo <- next;
  r.scanned <- next;
  `Line line

(* A line of up to [Proto.max_line_len] bytes is a [`Line]; one more
   byte makes it [`Too_long].  At EOF a non-empty partial line is still
   a [`Line]; with nothing buffered, or on a socket error, the
   connection is done ([`Eof]). *)
let rec read_line r =
  let nl = find_newline r.buf r.scanned r.hi in
  if nl < r.hi then take r nl (nl + 1)
  else if r.hi - r.lo > Proto.max_line_len then skip_line r
  else begin
    r.scanned <- r.hi;
    match fill r with
    | 0 -> if r.hi = r.lo then `Eof else take r r.hi r.hi
    | n when n < 0 -> `Eof
    | _ -> read_line r
  end

(* Drop what is buffered and read on through the next newline.  Running
   out of input here, by EOF or a socket error, still reports the line
   as too long. *)
and skip_line r =
  r.lo <- r.hi;
  r.scanned <- r.hi;
  if fill r <= 0 then `Too_long
  else
    let nl = find_newline r.buf r.lo r.hi in
    if nl < r.hi then begin
      r.lo <- nl + 1;
      r.scanned <- nl + 1;
      `Too_long
    end
    else skip_line r

let handle_conn t fd =
  match
    (* The channel before registration: if the descriptor is unusable
       there is nothing to serve and nothing may be left in the
       registry. *)
    Unix.out_channel_of_descr fd
  with
  | exception _ -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | oc ->
  let token = Registry.register t.registry fd in
  let conn =
    {
      fd;
      oc;
      wlock = Mutex.create ();
      inflight = Atomic.make 0;
      dead = Atomic.make false;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      Registry.unregister t.registry token;
      (* Wait for the dispatcher to write any outstanding replies before
         tearing the descriptor down. *)
      let rec settle n =
        if Atomic.get conn.inflight > 0 then begin
          if n < 64 then Thread.yield () else Thread.delay 0.001;
          settle (n + 1)
        end
      in
      settle 0;
      (* Exactly one close for the descriptor the reader and the reply
         channel share: flush the channel, then close the descriptor
         itself.  close_out closes the same descriptor, so adding it is
         a double close, and under connection churn the kernel reuses
         the number between the two — the second close would tear down
         a stranger's brand-new connection (the soak harness catches
         this as a stuck registry entry on the victim). *)
      (try flush conn.oc with Sys_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let reader = reader_of fd in
      let rec loop () =
        if Atomic.get conn.dead then ()
        else
        match read_line reader with
        | `Eof -> ()
        | `Too_long ->
            bump t Slot.requests;
            let sp = new_rspan t in
            Rspan.set_kind sp "invalid";
            reply_error t conn ~sp ~id:None Proto.Bad_request
              (Printf.sprintf "request line exceeds %d bytes" Proto.max_line_len);
            loop ()
        | `Line line ->
            let sp = new_rspan t in
            (try serve_line t conn ~sp line
             with exn ->
               reply_error t conn ~sp ~id:None Proto.Internal
                 (Printexc.to_string exn));
            loop ()
      in
      loop ())

(* --- acceptor ---------------------------------------------------------- *)

let accept_loop t =
  let rec loop () =
    match Unix.accept t.lsock with
    | fd, _ ->
        let th =
          Thread.create
            (fun () ->
              (* A dying conn thread must not take the runtime's default
                 uncaught-exception path: it would skip no cleanup (the
                 handler's [Fun.protect] already ran or never started)
                 but floods stderr mid-drain. *)
              try handle_conn t fd with _ -> ())
            ()
        in
        Mutex.lock t.conns_lock;
        t.conn_threads <- th :: t.conn_threads;
        Mutex.unlock t.conns_lock;
        loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        if Atomic.get t.stop_flag then () else loop ()
    | exception Unix.Unix_error _ ->
        (* [request_stop] shut the listening socket down; any other
           accept failure backs off briefly and retries. *)
        if Atomic.get t.stop_flag then ()
        else begin
          Thread.delay 0.01;
          loop ()
        end
  in
  loop ()

(* --- lifecycle --------------------------------------------------------- *)

let drain_signals = [ Sys.sigint; Sys.sigterm ]
let watched_signals = Sys.sighup :: drain_signals

let start cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Every thread (and pool domain) spawned below inherits a mask with
     the watched signals blocked, so the kernel can never pick one of
     them for delivery — {!install_signals}' watcher is then the only
     receiver.  The caller's own mask is restored on the way out. *)
  let old_mask = Thread.sigmask Unix.SIG_BLOCK watched_signals in
  Fun.protect
    ~finally:(fun () -> ignore (Thread.sigmask Unix.SIG_SETMASK old_mask))
  @@ fun () ->
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lsock Unix.SO_REUSEADDR true;
     Unix.bind lsock
       (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     Unix.listen lsock 128
   with exn ->
     (try Unix.close lsock with Unix.Unix_error _ -> ());
     raise exn);
  let srv_port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> cfg.port
  in
  let pool =
    if cfg.jobs > 1 then Some (Rv_engine.Pool.create ~jobs:cfg.jobs ())
    else None
  in
  let t =
    {
      cfg;
      lsock;
      srv_port;
      cache = Cache.create ~max_bytes:cfg.cache_bytes;
      queue = Admission.create ~cap:cfg.queue_cap;
      registry = Registry.create ();
      pool;
      stop_flag = Atomic.make false;
      joined = Atomic.make false;
      conns_lock = Mutex.create ();
      conn_threads = [];
      acceptor = None;
      dispatcher = None;
      started_us = Clock.now_us ();
      counts = Array.map (fun _ -> Atomic.make 0) counters;
      globals =
        Array.map (fun (field, _) -> Counter.find ("serve." ^ field)) counters;
      latency_count = Atomic.make 0;
      latency_max_us = Atomic.make 0;
      queue_wait_max_us = Atomic.make 0;
      h_latency = Histogram.find "serve.latency_us";
      h_queue_wait = Histogram.find "serve.queue_wait_us";
      req_seq = Atomic.make 0;
      windows =
        (* shed/error windows are rarely interesting alone but keep the
           derived "all" aggregate covering every query reply. *)
        List.concat_map
          (fun kind ->
            List.map
              (fun path -> (kind, path, Window.create ()))
              [ "index"; "cache"; "sim"; "shed"; "error" ])
          [ "worst"; "run" ];
      recorder = Recorder.create ~cap:cfg.recorder_cap ();
      index = Atomic.make None;
      backfill_lock = Mutex.create ();
      backfill_pending = Hashtbl.create 64;
      backfill_stop = Atomic.make false;
      backfill_thread = None;
    }
  in
  (* A missing or corrupt index is a degraded start, not a failed one:
     every query still computes, only slower. *)
  (match cfg.index_path with
  | None -> ()
  | Some path -> (
      match Rv_index.Reader.open_ path with
      | Ok r -> Atomic.set t.index (Some r)
      | Error msg ->
          Printf.eprintf
            "rv serve: index not loaded (%s); serving without it\n%!" msg));
  if cfg.index_backfill && Option.is_some cfg.index_path then
    t.backfill_thread <- Some (Thread.create backfill_loop t);
  t.acceptor <- Some (Thread.create accept_loop t);
  t.dispatcher <- Some (Thread.create dispatch_loop t);
  t

let request_stop t =
  if Atomic.compare_and_set t.stop_flag false true then
    (* Wakes the blocked [accept]; Linux returns [EINVAL] from [accept]
       after [shutdown] on a listening socket. *)
    try Unix.shutdown t.lsock Unix.SHUTDOWN_ALL
    with Unix.Unix_error _ | Invalid_argument _ -> ()

let join t =
  if Atomic.compare_and_set t.joined false true then begin
    (match t.acceptor with Some th -> Thread.join th | None -> ());
    (try Unix.close t.lsock with Unix.Unix_error _ -> ());
    (* Admitted jobs finish and their responses are written before any
       connection is torn down. *)
    Admission.drain t.queue;
    (match t.dispatcher with Some th -> Thread.join th | None -> ());
    (* The dispatcher has stopped feeding the pending table; one final
       publish persists whatever the last interval accumulated. *)
    Atomic.set t.backfill_stop true;
    (match t.backfill_thread with Some th -> Thread.join th | None -> ());
    if t.cfg.index_backfill then publish_backfill t;
    Registry.shutdown_all t.registry;
    let conns =
      Mutex.lock t.conns_lock;
      let c = t.conn_threads in
      Mutex.unlock t.conns_lock;
      c
    in
    List.iter Thread.join conns;
    match t.pool with Some p -> Rv_engine.Pool.shutdown p | None -> ()
  end

let stop t =
  request_stop t;
  join t

(* [Sys.Signal_handle] handlers do not run while every thread is parked
   in a blocking section (observed on OCaml 5.1: a handler installed
   before [Thread.join] never fires), so signals are delivered the
   reliable way: masked everywhere, consumed by a dedicated
   [Thread.wait_signal] watcher.  SIGHUP reloads the index in place;
   SIGINT/SIGTERM begin the drain. *)
let install_signals t =
  ignore (Thread.sigmask Unix.SIG_BLOCK watched_signals);
  ignore
    (Thread.create
       (fun () ->
         let rec watch () =
           let s = Thread.wait_signal watched_signals in
           if s = Sys.sighup then begin
             (match reload_index t with
             | Ok () ->
                 Printf.eprintf "rv serve: index reloaded (generation %d)\n%!"
                   (index_stat (Atomic.get t.index) Rv_index.Reader.generation)
             | Error msg ->
                 Printf.eprintf "rv serve: index reload failed: %s\n%!" msg);
             watch ()
           end
           else request_stop t
         in
         watch ();
         (* A second INT/TERM abandons the drain. *)
         ignore (Thread.wait_signal drain_signals);
         exit 1)
       ())

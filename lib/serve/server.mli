(** The rv_serve TCP server: newline-delimited JSON queries over the
    rendezvous stack, with admission control, a canonical-key result
    cache, per-request deadlines and graceful drain.

    Thread structure: one acceptor, one connection thread per client,
    and a single dispatcher that pops admitted jobs and evaluates them —
    inline when [jobs <= 1], fanning label pairs out over an
    {!Rv_engine.Pool} of worker domains otherwise.  Compute never runs
    on connection threads, so the trajectory cache (domain-local state)
    is only ever touched from the dispatcher or from pool workers.

    Determinism contract: for the same request stream, response {e
    bytes} are identical across [jobs = 1] and [jobs > 1] (the sweep
    engine merges in task order) and across cache on/off (the cache
    stores the exact field list the handler would recompute, rendered
    through the single {!Proto.ok_line} path).  [bench serve] and the CI
    smoke job assert both.

    Graceful drain ([request_stop] then [join], or just [stop]): stop
    accepting, let the dispatcher finish every admitted job (responses
    are written), then half-close client sockets so reader threads see
    end-of-file, join everything, shut the pool down. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** [0] binds an ephemeral port (see {!port}) *)
  jobs : int;  (** [<= 1] = evaluate inline on the dispatcher thread *)
  cache_bytes : int;  (** result-cache budget; [<= 0] disables caching *)
  queue_cap : int;
      (** admission-queue bound; a full queue answers [overloaded]
          immediately ([0] sheds every uncached query — used by tests) *)
  default_deadline_ms : int option;
      (** applied to requests that carry no [deadline_ms] of their own *)
  index_path : string option;
      (** baked {!Rv_index} file consulted before the LRU cache; a
          missing or corrupt file degrades to serving without it *)
  index_backfill : bool;
      (** accumulate computed misses and periodically republish
          [index_path] as the next generation (requires [index_path]) *)
  backfill_flush_s : float;
      (** backfill publish interval; [<= 0] means the 5s default *)
  telemetry : bool;
      (** always-on serving telemetry (default [true]): sliding latency
          windows per kind/path and the anomaly flight recorder.  Reply
          bytes are identical either way — only measurement is switched;
          [false] exists for the bench's overhead row.  Counters and
          gauges are kept regardless; gauges (GC, queue, connections,
          cache, index, uptime) are read when a probe asks *)
  recorder_cap : int;  (** flight-recorder ring size (default 256) *)
  slow_us : int;
      (** without a deadline, a request slower than this is flagged
          [slow] and always retained by the recorder (default 10ms);
          with a deadline the threshold is half the budget *)
}

val default_config : config
(** [127.0.0.1:0], [jobs = 1], 8 MiB cache, queue capacity 64, no
    default deadline, no index; telemetry on, 256-record recorder,
    10ms slow threshold. *)

type t

val start : config -> t
(** Bind, listen, spawn acceptor and dispatcher.  Also sets [SIGPIPE]
    to ignore (socket writes must fail with an error, not kill the
    process).  Raises [Unix.Unix_error] if the address cannot be
    bound. *)

val port : t -> int
(** The actually-bound port (resolves [port = 0]). *)

val request_stop : t -> unit
(** Begin graceful drain: stop accepting new connections.  Idempotent
    and async-signal-safe — this is the [SIGINT]/[SIGTERM] handler's
    entry point. *)

val join : t -> unit
(** Wait for drain to complete: dispatcher finishes every admitted job,
    connection threads exit, pool shuts down.  Call {!request_stop}
    first (or use {!stop}); idempotent. *)

val stop : t -> unit
(** [request_stop t; join t]. *)

val install_signals : t -> unit
(** Route [SIGINT]/[SIGTERM] to {!request_stop} and [SIGHUP] to
    {!reload_index} (live index swap, no drain). *)

val reload_index : t -> (unit, string) result
(** Re-open [config.index_path] and atomically swap the live reader.
    On [Error] (missing/corrupt file, or no path configured) the
    previous index, if any, stays in service.  In-flight lookups on a
    displaced reader finish against the old mapping — a swap is never
    observable mid-request. *)

val version_fields : unit -> (string * Rv_obs.Json.t) list
(** The [version] admin reply's build-identity fields — also what
    [rv version] prints (dune-embedded {!Build_meta}, index format
    version, feature flags).  The served [version] probe appends the
    live index's load state, generation and record count. *)

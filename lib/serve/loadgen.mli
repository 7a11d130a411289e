(** Deterministic load harness for {!Server}.

    A run opens [conns] TCP connections, deals a seeded request mix
    across them round-robin, and drives each connection from its own
    thread (write line, read reply, repeat).  Request ids are the global
    request index, so the concatenation of all replies {e sorted by id}
    is a pure function of [(mix, seed, requests)] — that sorted
    transcript is what the determinism checks and the CI golden file
    compare across [-j1]/[-j2] and cache on/off. *)

type mix =
  | Cached  (** a handful of distinct queries, endlessly repeated —
                exercises the result-cache fast path *)
  | Mixed  (** mostly repeats with a tail of fresh queries *)
  | Heavy  (** every query distinct and compute-bound — exercises
               admission control *)
  | Index  (** cycles the 8 worst-case cells of the canonical bake
               lattice (see the [index_mix_*] constants) — all-index-hit
               traffic against a server started with that index *)

val mix_of_string : string -> (mix, string) result

val worst_line :
  ?max_delay:int ->
  id:int ->
  graph:string ->
  algorithm:string ->
  space:int ->
  pairs:int ->
  unit ->
  string
(** A [worst] request line; the [max_delay] field is written only when
    given, so the server applies its protocol default otherwise. *)

val run_line :
  id:int -> graph:string -> algorithm:string -> space:int -> label_a:int -> label_b:int -> string
(** A [run] request line with the default explorer, starts and delays. *)

(** The bake lattice matching the [Index] mix: pass these five strings
    to [rv bake] (or {!Rv_index.Lattice.of_args}) and every request the
    mix generates is pre-answered. *)

val index_mix_graphs : string
val index_mix_algorithms : string
val index_mix_spaces : string
val index_mix_pairs : string
val index_mix_max_delays : string

type server_stats = {
  srv_count : int;
  srv_p50_us : int;
  srv_p90_us : int;
  srv_p99_us : int;
  srv_max_us : int;
}
(** The server's own latency view, scraped from its [metrics] probe
    after the run: the 5-minute sliding window (which covers the whole
    run), at log2-bucket resolution — each percentile is the bucket
    upper bound of the same nearest-rank sample the client reports. *)

type summary = {
  requests : int;
  churned : int;
      (** connect/one-request/disconnect cycles run alongside the dealt
          stream; their replies (ids [requests..requests+churned-1]) are
          part of [transcript] and the ok/error counts *)
  ok : int;
  errors : int;
  overloaded : int;
  deadline_exceeded : int;
  elapsed_s : float;
  throughput_rps : float;
  lat_p50_us : int;
      (** client latencies: nearest-rank percentiles
          ({!Rv_util.Stats.percentile}) of every request's write-to-read
          time; [0] with no replies *)
  lat_p90_us : int;
  lat_p99_us : int;
  lat_max_us : int;
  server : server_stats option;
      (** [None] when the post-run scrape failed (e.g. server gone) *)
  transcript : string list;
      (** reply lines sorted by request id — the deterministic part *)
}

val run :
  ?host:string ->
  port:int ->
  conns:int ->
  requests:int ->
  seed:int ->
  mix:mix ->
  ?churn:int ->
  unit ->
  (summary, string) result
(** Drive a server.  Connection failures during setup retry briefly
    (the server may still be binding); a mid-run connection loss aborts
    with [Error].  [churn] (default 0) additionally runs that many
    deterministic connect/one-request/disconnect cycles from a dedicated
    thread — reproducible registry churn mixed into any seeded mix; the
    cycle replies join the sorted transcript after the main stream. *)

val connect : host:string -> port:int -> (Unix.file_descr, string) result
(** TCP connect, retried 50 times at 100 ms while the server may still be
    binding. *)

val rpc : ?host:string -> port:int -> string -> (string, string) result
(** Send one request line on a fresh connection and return the reply
    line — the building block for scrapes and the [rv obs] client. *)

val server_clock_check : summary -> (unit, string) result
(** Server p50 must not exceed client p50: the server measures parse to
    reply-render, strictly inside the client's write-to-read interval.
    Compared at log2-bucket resolution (the server reports bucket upper
    bounds), so an [Error] means a real clock or accounting bug, not
    rounding.  [Ok] when no server stats were scraped or the window is
    empty. *)

val summary_json : summary -> Rv_obs.Json.t
(** For [BENCH_serve.json]; excludes the transcript.  Includes a
    ["server"] object when the post-run scrape succeeded. *)

val print_summary : out_channel -> summary -> unit
(** Client percentiles and, when scraped, the server's sliding-window
    view side by side. *)

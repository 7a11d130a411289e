(** Anomaly flight recorder: a bounded ring of completed request
    records, biased so the interesting ones survive.

    Every finished request (queries only — admin probes would flood the
    ring, not least the `rv obs` poller watching it) is summarized into
    a {!record} and {!add}ed.  When the ring is full the oldest
    {e healthy} record is evicted first; slow, shed, errored and
    index-fallback records are only evicted once the entire ring is
    anomalies.  So after a traffic burst the ring still holds the
    requests worth explaining.

    Records carry the request's stage breakdown (from {!Rspan}) with
    stage times relative to receive, which makes them portable: the
    ["obs"] admin probe serves them as JSON ({!to_json}), and
    [rv obs dump --chrome] rebuilds them ({!of_json}) into a Chrome
    trace ({!chrome_json}) with one lane per request — a stage
    waterfall under Perfetto. *)

type flag = Healthy | Slow | Shed | Errored | Index_fallback

val flag_to_string : flag -> string

type record = {
  rr_id : int;  (** request id (per-server, monotone) *)
  rr_kind : string;  (** ["worst"] / ["run"] *)
  rr_path : string;  (** answer path: index / cache / sim / shed / error *)
  rr_status : string;  (** ["ok"] or the error code *)
  rr_flag : flag;
  rr_recv_us : float;  (** absolute receive time, {!Clock} µs *)
  rr_total_us : int;
  rr_stages : (string * float * float) list;
      (** [(name, start_us, dur_us)], relative to [rr_recv_us] *)
}

type t

val create : ?cap:int -> unit -> t
(** Ring capacity (default 256, floored to 1). *)

val cap : t -> int

val add : t -> record -> unit

val records : ?last:int -> t -> record list
(** Retained records sorted by request id (oldest first); [?last] keeps
    only the newest [n]. *)

val counts : t -> int * int * int * int
(** [(healthy, flagged, evicted_healthy, evicted_flagged)]. *)

val to_json : record -> Rv_obs.Json.t
val of_json : Rv_obs.Json.t -> record option

val chrome_json : record list -> Rv_obs.Json.t
(** Complete Chrome trace document for the records. *)

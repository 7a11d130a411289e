(** Evaluate one parsed query into response fields.

    The handler is where an untrusted-but-validated request meets the
    simulation stack: specs are parsed through {!Rv_experiments.Spec}
    exactly as the CLI does (except [file:] graphs, which are refused —
    a remote peer must not name local paths), worst-case sweeps reuse
    {!Rv_experiments.Workload.worst_for} one label pair at a time so the
    deadline is checked between pairs, and every [Invalid_argument]
    raised by the stack surfaces as a [bad_request] reply instead of a
    dead connection.

    Successful answers are split into integer results ({!vals}, via
    {!eval_vals}) and their rendering ({!fields_of_vals}): direct
    compute, the LRU cache and the baked index all flow through the one
    printer, which is what makes the three serve paths byte-identical.
    {!values_of_vals}/{!vals_of_values} are the fixed-width codec index
    records use; a record that fails to decode falls back to simulation,
    never to a wrong answer.

    Deadline semantics: [deadline_us] is an absolute wall-clock instant.
    A sweep that overruns it stops at the next pair boundary and reports
    [deadline_exceeded] with partial progress ([pairs_done],
    [pairs_total], [partial_time], [partial_cost]); requests that spent
    their whole budget queueing report [pairs_done = 0]. *)

type worst_vals = {
  wv_pairs_swept : int;
  wv_delays_swept : int;
  wv_e : int;
  wv_time : int;
  wv_cost : int;
  wv_proven_time : int;
  wv_proven_cost : int;
}

type run_vals = {
  rv_start_b : int;  (** antipode resolved *)
  rv_met : bool;
  rv_time : int;
  rv_meeting_node : int option;
  rv_cost : int;
  rv_cost_a : int;
  rv_cost_b : int;
  rv_crossings : int;
  rv_rounds_run : int;
  rv_proven_time : int;
  rv_proven_cost : int;
}

type vals = Worst_vals of worst_vals | Run_vals of run_vals

val eval_vals :
  ?pool:Rv_engine.Pool.t ->
  deadline_us:float option ->
  Proto.query ->
  (vals, Proto.code * string * (string * Rv_obs.Json.t) list) result
(** Never raises. *)

val fields_of_vals : Proto.query -> vals -> (string * Rv_obs.Json.t) list
(** The single success printer.  Raises [Invalid_argument] if the query
    and vals kinds disagree (callers decode with {!vals_of_values},
    which already rules that out). *)

val values_of_vals : vals -> int array
(** Encode for an index record; always 13 integers long. *)

val vals_of_values : Proto.query -> int array -> vals option
(** Decode an index record against the query shape; [None] on width or
    kind-tag mismatch (caller falls back to computing). *)

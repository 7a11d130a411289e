(** The Chrome trace-event exporter.  Produces the JSON object format
    ({["traceEvents"]} array) understood by Perfetto
    ({{:https://ui.perfetto.dev}ui.perfetto.dev}) and chrome://tracing:
    complete spans as [ph:"X"] with [ts]/[dur] in microseconds, instants
    as [ph:"i"], plus [ph:"M"] metadata naming the process and one thread
    lane per domain / synthetic lane (engine workers and, in deep mode,
    the two agents each get their own lane). *)

val events_json : ?lane_names:(int * string) list -> Obs.event list -> Json.t
(** Render an explicit event list (e.g. synthetic events rebuilt from a
    flight-recorder dump).  [lane_names] overrides the display name of a
    lane; unlisted lanes fall back to {!Obs.lane_name}. *)

val to_json : unit -> Json.t
(** The whole trace for the current event buffer
    ([events_json (Obs.events ())]). *)

val write_file : string -> unit

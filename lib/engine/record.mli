(** One simulated configuration's outcome, as a flat serializable record.

    This is the unit streamed by {!Sink}: every single rendezvous
    simulation inside a sweep produces one record identifying the full
    configuration (graph, algorithm, labels, starts, delays) and the
    measured outcome (meeting or not, time, cost).

    The JSONL schema (one object per line, all fields always present):

    {v
    {"graph":"ring:64","algorithm":"fast","label_a":3,"label_b":11,
     "start_a":0,"start_b":32,"delay_a":0,"delay_b":5,
     "met":true,"time":812,"cost":422}
    v}

    [time] is the meeting round when [met] is [true], and the number of
    rounds simulated before giving up when [met] is [false]. *)

type t = {
  graph : string;  (** graph spec, e.g. ["ring:64"] *)
  algorithm : string;  (** algorithm name, e.g. ["fast"] *)
  label_a : int;
  label_b : int;
  start_a : int;
  start_b : int;
  delay_a : int;
  delay_b : int;
  met : bool;
  time : int;
  cost : int;
}

val add_json : Buffer.t -> t -> unit
(** Append the record's single-line JSON object (no trailing newline) to
    the buffer.  The fixed template is written piece by piece with
    {!Rv_obs.Json.add_escaped} and {!Rv_obs.Json.add_int}, so nothing is
    allocated beyond growing the buffer: {!Sink} renders every record
    this way into a buffer it owns. *)

val to_json : t -> string
(** The same line as {!add_json}, as a fresh string. *)

val of_json : string -> (t, string) result
(** Parse a line produced by {!to_json}.  Tolerates whitespace and field
    reordering; every field must be present at its exact JSON type (no
    [1.0] for an integer, no [null]).  Anything else — including an
    integer too large for [int] — is an [Error] describing a problem
    found, never an exception. *)

val csv_header : string
(** Column names, comma-separated, matching {!to_csv}. *)

val add_csv : Buffer.t -> t -> unit
(** Append one CSV row (no trailing newline) to the buffer, allocating
    nothing beyond growing it; string fields are quoted when they contain
    a comma, quote, newline or carriage return, with quotes doubled. *)

val to_csv : t -> string
(** The same row as {!add_csv}, as a fresh string. *)

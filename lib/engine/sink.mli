(** Streaming result sinks for sweep records.

    A sink consumes {!Record.t} values one at a time.  All sinks are
    thread-safe (a mutex per sink), but the engine's wiring never relies
    on that for ordering: {!Sweep} returns task results in index order,
    and [Workload.worst_for] emits records while it merges them on the
    calling domain, replaying each label pair's outcome table with no
    record list in between — so the byte stream written by a JSONL or
    CSV sink is identical for any [--jobs] value.  A JSONL or CSV sink renders each
    record into a buffer it owns, under its mutex, and builds no
    per-record string. *)

type t

val null : unit -> t
(** Discards records (but still counts them). *)

val memory : unit -> t
(** Buffers records in memory; retrieve them with {!records}. *)

val jsonl : out_channel -> t
(** Writes one {!Record.to_json} line per record.  The sink owns one
    buffer: {!emit} renders the record into it with {!Record.add_json},
    appends the newline and hands the bytes to the channel in one write,
    so no per-record string is built.  The channel stays owned by the
    caller; {!close} only flushes it. *)

val csv : out_channel -> t
(** Writes {!Record.csv_header} immediately, then one {!Record.to_csv}
    row per record, rendered with {!Record.add_csv} into the sink's own
    buffer as {!jsonl} does.  The channel stays owned by the caller;
    {!close} only flushes it. *)

val file : ?fsync:bool -> [ `Jsonl | `Csv ] -> string -> t
(** Like {!jsonl} / {!csv} on a sink-owned file, written atomically: the
    bytes go to [<path>.tmp.<pid>] and {!close} renames the finished
    file into place, so a crashed or killed run leaves any previous
    output at [path] untouched and concurrent readers never see a
    partial file.  [fsync] (default false) additionally flushes the data
    to stable storage before the rename. *)

val tee : t list -> t
(** Broadcasts every record to each sub-sink. *)

val write_file_atomic : ?fsync:bool -> string -> (out_channel -> unit) -> unit
(** [write_file_atomic path f] runs [f] on a fresh [<path>.tmp.<pid>]
    channel (binary mode) and renames it to [path] on success — the same
    publication discipline as {!file}, for callers that write whole
    artifacts themselves (the rv_index baker).  On exception the temp
    file is removed and the exception re-raised; [fsync] (default false)
    flushes to stable storage before the rename. *)

val emit : t -> Record.t -> unit
(** Raises [Invalid_argument] on a closed sink. *)

val count : t -> int
(** Records emitted to this sink so far. *)

val records : t -> Record.t list
(** Buffered records in emission order — {!memory} sinks only; [[]] for
    every other kind (a {!tee} delegates to its children, so query them
    directly). *)

val close : t -> unit
(** Flush, release any owned channel, recursively close tee children.
    Idempotent. *)

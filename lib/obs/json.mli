(** The tree's one JSON codec: the observability exporters (Chrome
    trace-event files, JSONL metric streams), serve requests and replies,
    rv_lint's reports, baselines and SARIF, and sweep records
    ([Rv_engine.Record]) all read and write JSON through it.  Not a
    general-purpose JSON library — numbers are OCaml [int]/[float],
    strings are bytes (no unicode normalization), and object keys keep
    emission order. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering (no insignificant whitespace), valid JSON. *)

val add_escaped : Buffer.t -> string -> unit
(** [add_escaped b s] appends the body of the JSON string literal for
    [s], without the quotes, exactly as {!to_string} writes it: ['"'],
    ['\\'], newline, carriage return and tab as two-character escapes,
    other bytes below [0x20] as [\u00XX] (lowercase hex), every other
    byte as is.  Allocates nothing: a string with nothing to escape is
    one scan and one [Buffer.add_string].  For writers that render a
    fixed template straight into a buffer ([Rv_engine.Record.add_json]). *)

val add_int : Buffer.t -> int -> unit
(** [add_int b i] appends [string_of_int i] without building it: ints in
    [0..1023] come from a fixed table, every other int (down to
    [min_int]) is written digit by digit.  Allocates nothing beyond what
    growing [b] takes. *)

val parse : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a position-annotated
    message.  Accepts any whitespace, nested values, exponents, and the
    escape sequences {!to_string} emits ([\uXXXX] is ASCII-only). *)

val member : string -> t -> t option
(** [member k (Obj _)] is the first binding of [k]; [None] otherwise. *)

val to_int : t -> int option
(** [Int] directly; [Float] when integral. *)

val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option

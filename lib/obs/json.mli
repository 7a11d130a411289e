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

val escape : string -> string
(** The body of a JSON string literal for [s], without the quotes, as
    {!to_string} writes it: [s] itself (no copy) when nothing needs
    escaping.  For writers that render a fixed template with [Printf]. *)

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

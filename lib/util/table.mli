(** Plain-text experiment tables.

    Every experiment in the benchmark harness produces one of these; the
    renderer aligns columns and can emit either an ASCII box layout or
    GitHub-flavoured markdown (used verbatim in EXPERIMENTS.md). *)

type t = {
  title : string;
  headers : string list;
  rows : string list list;
  notes : string list;  (** free-form lines printed under the table *)
}

val make : ?notes:string list -> title:string -> headers:string list -> string list list -> t
(** Build a table.  Raises [Invalid_argument] if some row's width differs
    from the header width. *)

val render_ascii : t -> string
(** Boxed ASCII rendering, suitable for terminals. *)

val render_markdown : t -> string
(** GitHub-flavoured markdown rendering. *)

val print : t -> unit
(** [render_ascii] to stdout, followed by a blank line. *)

(** Cell formatting helpers. *)

val cell_float : ?digits:int -> float -> string
val cell_ratio : float -> float -> string
(** [cell_ratio a b] renders [a /. b] with two digits, or ["-"] when [b = 0]. *)

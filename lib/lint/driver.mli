(** File discovery, parsing, and orchestration of the source (R1..R5)
    and typed (R6..R9) passes + suppressions. *)

type options = {
  typed : bool;  (** run the typed (.cmt) pass *)
  build_dir : string option;
      (** where the artifacts live; [None] means [_build/default] *)
  hotpaths : string option;
      (** hot-path manifest; [None] means [lint_hotpaths.txt] when present *)
}

val default_options : options

type result = {
  findings : Report.finding list;  (** unsuppressed, globally sorted *)
  files : int;  (** .ml files checked by the source pass *)
  units : int;  (** compilation units analysed by the typed pass *)
  suppressed : int;  (** findings silenced by reasoned allow directives *)
  notes : string list;
      (** non-fatal diagnostics: unreadable artifacts, skipped typed pass *)
}

val check_source :
  Config.t -> path:string -> string -> Report.finding list * int
(** Source-pass lint of one compilation unit given as a string; returns
    (unsuppressed findings, suppressed count).  Unparseable input yields
    a [Lint] finding rather than an exception. *)

val run : ?options:options -> Config.t -> string list -> result
(** Recursively lint every [.ml] under the given files/directories
    (skipping dotdirs and [_build]) with the source pass, then run the
    typed pass over the corresponding .cmt artifacts; deterministic
    traversal and output order.  Inline allow directives suppress the
    findings of both passes.  Never raises on broken input — artifacts
    that cannot be read become [notes]. *)

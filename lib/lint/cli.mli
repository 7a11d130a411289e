(** The command line shared by [bin/rv_lint.ml] and [rv lint]. *)

val cmd : ?version:string -> string -> (int -> 'a) -> 'a Cmdliner.Cmd.t
(** [cmd name k] is the lint command under [name]: its arguments, its man
    page, and the lint run (or the rule catalog) as the action.  A run
    lints the given paths (default: the roots named by [--scope]) and
    prints the report to stdout (text or JSON); with [--baseline], only
    findings in excess of the snapshot fail it.  Its exit code (0 clean,
    1 unsuppressed findings, 2 usage error) is passed to [k].  [bin/rv_lint.ml] evaluates
    [cmd ~version "rv_lint" Fun.id] with [Cmd.eval']; [rv] adds
    [cmd "lint" exit] to its group of unit commands. *)

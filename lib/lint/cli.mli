(** The command line shared by [bin/rv_lint.ml] and [rv lint]. *)

val run :
  ?config:Config.t ->
  ?scope:string ->
  ?typed:bool ->
  ?build_dir:string option ->
  ?hotpaths:string option ->
  ?baseline:string option ->
  ?write_baseline:string option ->
  ?sarif:string option ->
  json:bool ->
  rules:string option ->
  paths:string list ->
  unit ->
  int
(** Lint [paths] (default: the roots named by [scope], ["full"] or
    ["core"]) and print the report to stdout (text or JSON).  [rules] of
    [Some "list"] prints the catalog instead.  With [baseline], only
    findings in excess of the snapshot fail the run; [write_baseline]
    regenerates the snapshot; [sarif] additionally writes a SARIF 2.1.0
    artifact of the full (pre-baseline) report.  Returns the process
    exit code: 0 clean, 1 unsuppressed findings, 2 usage error. *)

val cmd : ?version:string -> string -> (int -> 'a) -> 'a Cmdliner.Cmd.t
(** [cmd name k] is the lint command under [name]: its arguments, its man
    page, and {!run} (or the rule catalog) as the action, whose exit code
    is passed to [k].  [bin/rv_lint.ml] evaluates
    [cmd ~version "rv_lint" Fun.id] with [Cmd.eval']; [rv] adds
    [cmd "lint" exit] to its group of unit commands. *)

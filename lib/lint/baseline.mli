(** Baseline / diff mode: fail only on findings that are new relative to
    a checked-in snapshot.

    Keys are (file, rule, message) multisets — no line numbers, so
    reflowing a file does not churn the baseline. *)

type key = {
  k_file : string;  (** normalized *)
  k_rule : Report.rule;
  k_message : string;
}

type t = (key * int) list  (** sorted by key; counts >= 1 *)

val of_findings : Report.finding list -> t
val to_string : t -> string
(** The bytes [--write-baseline] writes: one JSON line, newline-terminated.
    {!load} followed by [to_string] reproduces a file this wrote. *)

val load : string -> (t, string) result
(** Unreadable or corrupt baselines are [Error], never exceptions. *)

type diff = {
  fresh : Report.finding list;
      (** findings in excess of their baselined count, in report order *)
  removed : (key * int) list;
      (** baselined keys whose current count dropped, and by how much —
          a prompt to refresh the baseline, not a failure *)
}

val diff : baseline:t -> Report.finding list -> diff

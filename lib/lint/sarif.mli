(** SARIF 2.1.0 rendering of a lint report (CI artifact / code-scanning
    upload format). *)

val to_string : Report.finding list -> string

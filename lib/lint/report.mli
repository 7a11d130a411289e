(** Findings and the rule catalog. *)

type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | Lint

val rule_to_string : rule -> string
val rule_of_string : string -> rule option

val all_rules : rule list
(** The user-facing rules, R1..R9 ([Lint] is internal and always on). *)

val rule_title : rule -> string
val rule_doc : rule -> string

type finding = {
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as in compiler messages *)
  rule : rule;
  message : string;
}

val compare_finding : finding -> finding -> int
(** Total order: file, line, col, rule, message — report order is
    deterministic regardless of traversal order. *)

val to_string : finding -> string
(** [file:line:col [rule] message]. *)

val to_json : finding -> Rv_obs.Json.t

(** Explicitly-typed comparators — the sanctioned replacement for bare
    polymorphic [compare] as a comparator argument (rv_lint rule R4). *)

val int : int -> int -> int
val string : string -> string -> int

val pair : ('a -> 'a -> int) -> ('b -> 'b -> int) -> 'a * 'b -> 'a * 'b -> int
(** Lexicographic. *)

val by : ('a -> 'b) -> ('b -> 'b -> int) -> 'a -> 'a -> int
(** [by key cmp] compares through a projection: [by snd int]. *)

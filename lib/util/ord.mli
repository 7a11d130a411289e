(** Explicitly-typed comparators — the sanctioned replacement for bare
    polymorphic [compare] as a comparator argument (rv_lint rule R4). *)

val int : int -> int -> int
val float : float -> float -> int
val string : string -> string -> int
val bool : bool -> bool -> int

val pair : ('a -> 'a -> int) -> ('b -> 'b -> int) -> 'a * 'b -> 'a * 'b -> int
(** Lexicographic. *)

val triple :
  ('a -> 'a -> int) ->
  ('b -> 'b -> int) ->
  ('c -> 'c -> int) ->
  'a * 'b * 'c ->
  'a * 'b * 'c ->
  int

val list : ('a -> 'a -> int) -> 'a list -> 'a list -> int
(** Lexicographic; shorter list first on shared prefix. *)

val option : ('a -> 'a -> int) -> 'a option -> 'a option -> int
(** [None] first. *)

val by : ('a -> 'b) -> ('b -> 'b -> int) -> 'a -> 'a -> int
(** [by key cmp] compares through a projection: [by snd int]. *)

val rev : ('a -> 'a -> int) -> 'a -> 'a -> int
(** Reversed order. *)

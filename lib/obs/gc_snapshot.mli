(** Allocation and collection snapshots ([Gc.quick_stat]), and their
    difference over an instrumented region — the "how much did this sweep
    allocate / how often did the GC run" half of the metrics summary. *)

type t = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  top_heap_words : int;
}

val take : unit -> t

val diff : before:t -> after:t -> t
(** Word and collection counters subtract; [heap_words]/[top_heap_words]
    keep the [after] values (they are levels, not flows). *)

val to_string : t -> string
(** Multi-line human rendering, one stat per line. *)

(** Mutex-guarded LRU result cache, bounded by an approximate byte
    budget.

    The server consults the cache on the {e canonical} request key before
    any simulation runs; because every cached value is exactly the field
    list the handler would recompute, responses are byte-identical with
    the cache on or off (asserted by [bench serve] and the CI smoke job).
    A capacity of [0] disables caching entirely — every lookup misses and
    nothing is stored. *)

type t

val create : max_bytes:int -> t
(** [max_bytes <= 0] disables the cache. *)

val find : t -> string -> (string * Rv_obs.Json.t) list option
(** Lookup; a hit promotes the entry to most-recently-used. *)

val add : t -> string -> (string * Rv_obs.Json.t) list -> unit
(** Insert or replace, then evict least-recently-used entries until the
    byte budget holds.  Entry size is approximated as key length plus
    rendered-value length. *)

type stats = {
  entries : int;
  bytes : int;
  capacity : int;
  evictions : int;
}

val stats : t -> stats

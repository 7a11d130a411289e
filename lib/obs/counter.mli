(** Named monotonic counters, atomic and process-global.

    Counters live in a registry keyed by name, so call sites need no
    setup: [Counter.count "sim.crossings" k] finds-or-creates the counter
    and adds [k] — or returns immediately when instrumentation is off
    (the {!Obs.enabled} fast path).  Increments are [Atomic.fetch_and_add],
    safe from any engine-pool worker domain. *)

type t

val find : string -> t
(** Find or create.  Use to hoist the registry lookup out of a loop. *)

val add : t -> int -> unit
(** Unconditional atomic add (no enabled check — the caller hoisted it). *)

val count : string -> int -> unit
(** [count name k]: no-op when disabled, else [add (find name) k]. *)

val value : t -> int

val all : unit -> (string * int) list
(** Every registered counter with its current value, sorted by name. *)

val reset : unit -> unit
(** Drop the whole registry. *)

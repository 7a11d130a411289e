(** Per-domain memoization of {!Traj.t} for adversarial sweeps.

    A sweep over label pairs × starts × delays needs each trajectory —
    a pure function of (algorithm, label, start) once the graph and
    explorer family are fixed — many times: for every partner label,
    every partner position, and every delay offset.  A {!ctx} captures
    the fixed part as a [build] function; {!get} memoizes its results
    per [(label, start)] key.

    The memo table is [Domain.DLS]-local: worker domains of an
    {!Rv_engine.Pool} share nothing (no locks, no cross-domain
    publication — lint rule R3 is satisfied by construction), each
    domain lazily rebuilding the trajectories its own tasks touch.  A
    fresh {!create} invalidates the tables of every domain on first
    access, so at most one sweep's trajectories are retained per domain.

    Memory is bounded per domain by [budget_rounds] (total materialized
    rounds, ~24 bytes each) with a two-generation second-chance scheme:
    entries accessed since the last rotation survive the next one, cold
    entries are dropped and rebuilt on demand — eviction never changes
    results, because builds are pure.

    When {!Rv_obs.Obs} is enabled, {!get} counts ["traj.cache_hits"] /
    ["traj.cache_misses"] and brackets each build in a ["traj.build"]
    span. *)

type ctx

val create :
  ?budget_rounds:int -> build:(label:int -> start:int -> Traj.t) -> unit -> ctx
(** A new cache generation around [build].  [build] must be pure and
    safe to call from any domain (it only reads immutable inputs).
    [budget_rounds] (default 2_000_000, ~50 MB per domain) caps the
    retained rounds per generation; clamped to at least 1.

    [build] may itself call {!get} on the context it belongs to, for a
    different key — a symmetry-reduced sweep derives the walk from start
    [c] as the image of the cached walk from start [0].  The inner
    lookup counts as a hit or miss of its own and may rotate the
    generations; the outer entry is then inserted into whichever
    generation is current.  Calling {!get} on a {e different} context
    from inside [build] is not supported. *)

val get : ctx -> label:int -> start:int -> Traj.t
(** Memoized [build ~label ~start] in the calling domain's table.
    Re-entrant from [build] (see {!create}). *)

type stats = { hits : int; misses : int }
(** Process-wide lookup accounting across all generations and domains.
    Unlike the Obs counters, these are always on — [rv sweep --stats]
    reports hit ratios without enabling a trace. *)

val stats : unit -> stats
(** Counts since process start or the last {!reset_stats}. *)

val reset_stats : unit -> unit
(** Zero the process-wide counters (sweep entry points call this so
    [--stats] reports per-invocation ratios). *)

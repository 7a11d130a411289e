(** Deterministic parallel maps over an index space.

    The engine's central guarantee: results are {e bit-for-bit identical}
    to a sequential run, for any pool size.  The mechanism is standard —
    each task runs on whatever domain claims its index, its result lands
    in its own slot, and the caller folds the slots in task-index order
    [0, 1, 2, ...] on the calling domain ([Workload.worst_for] folds the
    {!map_nested} slots of each label pair this way).  Since the fold
    sees the same operands in the same order either way, parallelism is
    unobservable in the result (provided each task is a pure function of
    its index, which every rendezvous simulation is: graphs are
    immutable and explorer state is created fresh per run).

    When [pool] is absent, or has [jobs = 1], everything runs inline in
    index order — the sequential fallback for [--jobs 1]. *)

val map_array : ?pool:Pool.t -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [map_array n f] is [[| f 0; f 1; ...; f (n-1) |]], evaluated in
    parallel when a multi-domain [pool] is supplied.  Sequentially the
    calls happen in increasing index order. *)

val map_nested :
  ?pool:Pool.t -> ?chunk:int -> int array -> (int -> int -> 'a) -> 'a array array
(** [map_nested counts f] is the ragged array
    [[| [| f 0 0; ... |]; [| f 1 0; ... |]; ... |]] with
    [Array.length result.(o) = counts.(o)], evaluated over the
    {e flattened} index space: the pool balances across all
    [sum counts] cells rather than across the outer index alone.  An
    orbit-reduced sweep uses this to split one label pair's
    representative cells into subtasks without making the decomposition
    (or the result) depend on the pool size — the subtask space is a
    pure function of [counts]. *)

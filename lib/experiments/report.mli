(** The full experiment suite: every table from the index in DESIGN.md,
    in order.  [rv exp --all] prints all of them (pinned by
    [test/golden/exp_all.golden]); [rv exp ID ...] prints selected ones.

    [pool] parallelizes the adversarial sweeps inside each experiment
    that has one (EXP-A..F, J); the tables are bit-for-bit identical with
    and without it (see {!Rv_engine.Sweep}).  Experiments whose work is
    not sweep-shaped (the lower-bound pipelines, ablations, async, ...)
    ignore it. *)

val all : ?pool:Rv_engine.Pool.t -> unit -> (string * Rv_util.Table.t) list
(** [(experiment id, table)] pairs, full-size parameters. *)

val by_id : string -> (?pool:Rv_engine.Pool.t -> unit -> Rv_util.Table.t) option
(** Look up one experiment by id ("A".."M", case-insensitive; "G" yields
    part (i), "G2" part (ii)). *)

val ids : string list

(** EXP-F — arbitrary graphs, each with its natural exploration procedure
    and bound [E] (the scenarios of Section 1.2: maps with marked starts,
    Hamiltonian/Eulerian certificates, unmarked maps, and UXS).

    Runs Algorithm [Fast] on each (graph, explorer) pair and reports the
    measured worst time and cost in units of the declared [E] — the paper's
    bounds are graph-independent once stated in those units, which this
    table confirms across nine very different substrates. *)

val table : ?pool:Rv_engine.Pool.t -> ?space:int -> unit -> Rv_util.Table.t

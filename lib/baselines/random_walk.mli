(** The randomized baseline (paper, Section 1.4: "the problem of rendezvous
    has been studied both under randomized and deterministic scenarios",
    with [5] the standard randomized reference).

    Each agent performs an independent uniform random walk: per round it
    exits through a uniformly random port of the current node.  Randomized
    rendezvous needs no labels at all (the walks break symmetry with
    probability 1), but only meets in expectation — the contrast that
    motivates the deterministic worst-case study.

    Determinism of the {e implementation} is preserved: walks are seeded,
    so experiments and tests are reproducible. *)

val measure :
  g:Rv_graph.Port_graph.t ->
  start_a:int ->
  start_b:int ->
  trials:int ->
  seed:int ->
  max_rounds:int ->
  (Rv_util.Stats.summary * Rv_util.Stats.summary, string) result
(** Run [trials] independent double random walks; returns summaries of the
    meeting times and costs.  [Error] if some trial exceeds [max_rounds]
    (the walks are recurrent, so a generous horizon always suffices on the
    graph sizes used here). *)

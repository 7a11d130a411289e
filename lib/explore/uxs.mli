(** Universal exploration sequences (UXS) — the substitute for Reingold's
    log-space construction (paper, Sections 1.2 and 4; reference [44]).

    A UXS is a sequence of integers [a_1, ..., a_k] guiding a walk in any
    port-labeled graph: upon entering a node of degree [d] through port [q],
    the agent exits through port [(q + a_i) mod d] (the first exit uses
    [q = 0]).  The rendezvous algorithms only require the [EXPLORE]
    contract — "from any start, all nodes are visited within [E] rounds" —
    so any sequence with that property over the graphs of interest is an
    adequate substrate.

    Reingold's construction is existentially universal over {e all} graphs
    of size [<= m] but is infeasible to instantiate (galactic constants).
    We substitute a {e corpus-verified} sequence: a deterministic seed
    search produces a sequence verified, by exhaustive simulation, to
    explore every graph in a corpus from every starting node within its
    length.  The default corpus spans all builder families plus seeded
    random graphs.  This substitution is documented in DESIGN.md. *)

type t = private {
  terms : int array;
  size_bound : int;  (** the [m] the sequence was verified for *)
  seed : int;  (** seed that produced it (reproducibility) *)
}

val walk : t -> Rv_graph.Port_graph.t -> start:int -> int list
(** Node sequence visited (including [start]) when replaying the sequence. *)

val rounds_to_cover : t -> Rv_graph.Port_graph.t -> start:int -> int option
(** Index (1-based) of the step after which all nodes have been visited, or
    [None] if the sequence does not cover the graph from [start]. *)

val covers : t -> Rv_graph.Port_graph.t -> bool
(** Covers from every start. *)

val default_corpus : size_bound:int -> Rv_graph.Port_graph.t list
(** All builder families with [n <= size_bound], plus seeded random
    connected graphs. *)

val construct :
  corpus:Rv_graph.Port_graph.t list -> size_bound:int -> seed:int -> (t, string) result
(** Deterministic search: candidate sequences are drawn from the seeded
    generator ([seed], [seed + 1], ...) and the first one covering the whole
    corpus is returned.  Every candidate has length
    [8 * m^2 * ceil(log2 (m + 1))] (a polynomial budget mirroring the
    polynomial estimate [R(m)]); the search gives up after 64 candidates. *)

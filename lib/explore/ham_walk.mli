(** Exploration along a known Hamiltonian cycle: [E = n - 1] (paper,
    Section 1.2: "if the graph has a Hamiltonian cycle, then E can be taken
    as n - 1").

    Requires a map with marked start and a cycle certificate.  Each
    execution follows [n - 1] cycle edges from the tracked position, which
    therefore advances one node backwards around the cycle per
    execution. *)

val make : Rv_graph.Port_graph.t -> cycle:int list -> start:int -> Explorer.t
(** Build the family once per graph, [make g ~cycle], then apply it per
    start.  The partial application checks the certificate and compiles
    the cycle's ports, twice around, into one array; each execution
    replays [n - 1] of them from the tracked cycle index.  Raises
    [Invalid_argument] there if the certificate fails
    [Rv_graph.Hamilton.check], and when applied to a start that is not a
    node. *)

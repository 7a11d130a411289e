(** Hamiltonian cycle certificates.  When the map shows a Hamiltonian cycle,
    the paper takes [E = n - 1].  Deciding Hamiltonicity is NP-hard, so
    builders that know a cycle export it as a certificate; this module
    validates certificates and provides a brute-force search for small test
    graphs. *)

val check : Port_graph.t -> int list -> bool
(** [check g cycle] holds iff [cycle] lists every node exactly once and
    consecutive nodes (cyclically) are adjacent in [g]. *)

val find_brute_force : Port_graph.t -> int list option
(** Backtracking search for a Hamiltonian cycle; intended for tests on small
    graphs.  Raises [Invalid_argument] if [Port_graph.n g > 16]. *)

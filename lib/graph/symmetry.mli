(** Port-preserving automorphism groups and orbit quotients of the
    position-pair space.

    An adversarial sweep over starting positions is redundant exactly up
    to the {e port-preserving} automorphisms of the graph: a vertex
    bijection [phi] with [follow g (phi u) p = (phi v, q)] whenever
    [follow g u p = (v, q)] — same outgoing port, same entry port.  Such
    a [phi] maps any agent walk to a walk taking the identical port
    decisions (agents observe only degrees and entry ports, and both are
    preserved), so every outcome field of a rendezvous from starts
    [(a, b)] equals the outcome from [(phi a, phi b)].  Plain
    vertex-transitivity is {e not} enough: an automorphism that permutes
    port numbers changes what the agents see.

    {b Per-family obligations} (DESIGN.md §3.6).  The group is never
    assumed — {!detect} derives every automorphism from scratch and
    checks it edge-by-edge, so the families below are discovered, not
    declared:

    - {!Ring.oriented}: exactly the [n] rotations (port 0 is always
      "clockwise", so rotation preserves ports; reflection swaps the
      port sense and is rejected).
    - {!Torus.make}: the [rows * cols] translations (the N/S/W/E port
      convention is translation-invariant; transposition permutes
      ports and is rejected).
    - {!Hypercube.make}: the [2^dim] xor-translations [u -> u lxor m]
      (port [i] flips bit [i] at every node; coordinate permutations
      permute ports and are rejected).
    - {!Complete_graph.make}: {b trivial}.  The rank numbering
      [port_of u v = if v < u then v else v - 1] is not invariant under
      any nonidentity vertex bijection, so the "obviously symmetric"
      complete graph offers no sound reduction at all —
      {!Complete_graph.circulant} restores a full rotation group with a
      circulant port numbering.
    - Trees, random graphs, scrambled rings: trivial (no sound
      quotient); {!reducible} is [false] and sweeps run unreduced.

    A port-preserving automorphism is determined by the image of any one
    node (propagation along ports forces the rest — the graph is
    connected), so the group acts freely; {!detect} therefore finds at
    most [n] automorphisms and the quotient arithmetic below is exact. *)

type t
(** A detected group for one graph: every port-preserving automorphism,
    each one a checked witness. *)

val detect : Port_graph.t -> t
(** [detect g] finds all port-preserving automorphisms of [g].  For each
    candidate image [t] of node 0 it propagates the unique consistent
    extension breadth-first, rejecting on any degree, entry-port or
    consistency mismatch, and finally re-verifies the surviving witness
    with {!check_witness} — the result carries only proven
    automorphisms.  Runs in O(n^2 * max_degree); intended once per
    sweep, not per cell. *)

val order : t -> int
(** Number of automorphisms found (always >= 1: the identity). *)

val transitive : t -> bool
(** The group moves node 0 to every node (equivalently, [order t = n]).
    Because the action is free, transitivity makes every orbit of
    ordered position pairs have size exactly [order t]. *)

val reducible : t -> bool
(** [transitive t && order t > 1] — the only case this module offers a
    quotient for.  Free-but-intransitive groups exist in principle; they
    would need lex-min orbit scans per pair, and no graph family in this
    tree produces one, so sweeps treat them as unreduced. *)

val group_name : t -> string
(** Human label for reports: ["trivial"], or ["order-<k>"] (plus
    ["/intransitive"] when the rare intransitive case is detected). *)

val automorphisms : t -> int array array
(** The witnesses themselves, identity first; each array [phi] satisfies
    [check_witness g phi = Ok ()].  Do not mutate. *)

val check_witness : Port_graph.t -> int array -> (unit, string) result
(** [check_witness g phi] proves or refutes that [phi] is a
    port-preserving automorphism: bijectivity plus
    [follow g (phi u) p = (phi v, q)] for every node [u] and port [p].
    This is the complete proof obligation — there is no unchecked
    symmetry assumption anywhere in the quotient. *)

val canon_pair : t -> int -> int -> int * int
(** [canon_pair t a b] (requires [reducible t] and [a <> b]) is the
    canonical representative of the orbit of the ordered pair [(a, b)]:
    the unique orbit member with first coordinate [0], i.e.
    [(0, phi b)] for the unique [phi] with [phi a = 0].  It is also the
    lexicographically smallest orbit member, so in the sweep's
    all-pairs enumeration order the representative is always visited
    before any other member of its orbit.  O(1): two array reads. *)

val from_zero : t -> int -> int array
(** [from_zero t c] (requires [reducible t]) is the unique automorphism
    [phi] with [phi.(0) = c] — the counterpart of the one {!canon_pair}
    applies, which sends a node to 0.  O(1); do not mutate. *)

val orbit_size : t -> int
(** Size of every position-pair orbit under a reducible group: exactly
    [order t] (free action).  The sweep multiplies coverage counts back
    by this factor. *)

(** Differential fuzzing over (graph x algorithm x delay x model) cells.

    The repository's determinism contract is layered: {!Rv_sim.Traj}'s
    meeting scan must equal {!Rv_sim.Sim.run} field for field (both
    placement models), symmetry-reduced sweeps must equal unreduced
    ones, and a serve reply must be byte-identical to computing the
    same query in-process.  This module draws seeded random cells and
    asserts all three.  On a mismatch the caller hands the cell to
    {!Shrink} and commits the minimized reproducer as a test fixture.

    The planted-fault hook ({!set_planted_fault}) perturbs the fast-path
    result of the {!Traj_vs_sim} check before comparison — a test-only
    lever so the shrinker and the fixture pipeline can be exercised on a
    tree with no real bugs. *)

type check = Traj_vs_sim | Serve_vs_direct | Sym_on_off

val all_checks : check list
val check_to_string : check -> string
val check_of_string : string -> (check, string) result

type cell = {
  c_family : string;  (** ["ring"], ["path"] or ["star"] *)
  c_size : int;
  c_algorithm : string;  (** a {!Rv_experiments.Spec.parse_algorithm} spec *)
  c_space : int;
  c_label_a : int;
  c_label_b : int;  (** distinct, both in [1..space] *)
  c_start_a : int;
  c_start_b : int;  (** distinct, both in [0..size-1] *)
  c_delay_a : int;
  c_delay_b : int;
  c_parachute : bool;
}

val min_size : int
(** Smallest size every family accepts — the shrinker's size floor. *)

val algorithms : string array
(** The algorithm catalog cells draw from, simplest first — the
    shrinker treats earlier entries as smaller. *)

val valid : cell -> bool
(** Structural validity: in-range distinct labels and starts,
    non-negative delays, known family, sizes above the family floor.
    Generated cells are always valid; the shrinker uses this to discard
    out-of-range candidates. *)

val gen : Rv_util.Rng.t -> cell
(** Next seeded random cell (always {!valid}). *)

val cell_to_string : cell -> string
(** Canonical one-line [key=value] rendering (the fixture body format,
    space-separated). *)

val cell_of_kv : (string * string) list -> (cell, string) result
(** Rebuild a cell from [key=value] pairs (order-insensitive; unknown
    keys rejected).  Validates with {!valid}. *)

type mismatch = {
  m_check : check;
  m_cell : cell;
  m_expected : string;  (** reference-side rendering *)
  m_actual : string;  (** fast/serve-side rendering *)
}

val eval : ?serve_port:int -> check -> cell -> (unit, mismatch) result
(** Run one differential check.  {!Serve_vs_direct} needs [serve_port]
    and is skipped ([Ok]) without one; {!Sym_on_off} only bites on
    vertex-transitive families (ring) and is skipped elsewhere.  Raises
    [Failure] when the harness itself breaks (spec fails to parse,
    server unreachable) — that is a bug in the fuzzer, not a finding. *)

val set_planted_fault : (cell -> bool) option -> unit
(** Install (or clear) the test-only fault: when the predicate holds,
    the {!Traj_vs_sim} fast-path result is perturbed before comparison,
    so matching cells report a mismatch. *)

val planted_default : cell -> bool
(** The built-in plant ([rv fuzz --plant]): monotone in size and
    [delay_b], so the shrunk minimum is a known fixed point — size at
    the family floor that still satisfies it, [delay_b = 2]. *)

type run_result = {
  cells_run : int;
  checks_run : int;
  mismatch : mismatch option;  (** first mismatch; the run stops on it *)
}

val run :
  ?serve_port:int ->
  ?checks:check list ->
  seed:int ->
  cells:int ->
  budget_s:float ->
  unit ->
  run_result
(** Draw up to [cells] cells (0 = unbounded) from [seed], run every
    requested check on each, stop at the first mismatch or when
    [budget_s] elapses ([0.] = no time box). *)

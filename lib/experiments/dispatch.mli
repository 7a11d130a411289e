(** Per-round cost constants of the two sweep kernels, measured on this
    machine.

    No sweep reads them: {!Workload.worst_for} picks its kernel with a
    size rule that depends only on its inputs (see {!Workload.dispatch}).
    The repository benchmark (perfbench) still times {!constants} for
    its [dispatch.calibrate_ms] row; that row and a test that the
    figures are positive are the only callers, and the module goes once
    the row does. *)

type constants = {
  build_ns : float;  (** ns per materialized trajectory round *)
  scan_ns : float;  (** ns per scanned round in {!Rv_sim.Traj.meet} *)
  sim_ns : float;  (** ns per simulated round in {!Rv_sim.Sim.run} *)
}

val constants : unit -> constants
(** The process-wide calibration, measured on first use (minimum of
    three reps over 8192-round synthetic ring kernels, a few hundred
    microseconds total) and then cached — a compare-and-set publishes
    the first finished measurement, so concurrent first calls agree. *)

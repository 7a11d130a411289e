(** Measured cost model choosing between the reference simulator and the
    trajectory fast path, per sweep.

    The trajectory path ({!Rv_sim.Traj}) wins when walks are reused —
    each materialized walk amortizes over many partners, positions and
    delays — and loses when a sweep builds long walks it barely scans:
    a sweep whose meetings happen within a few rounds (EXP-E's
    delay-offset cells) pays O(schedule duration) per build to save
    O(meeting round) per simulation, a net regression.  The unconditional
    fast path cost EXP-E 0.35x; dispatching on predicted cost removes
    the regression while keeping the 3x+ wins elsewhere.

    The prediction is [builds + scans < simulations] in nanoseconds:

    - [build_ns * build_rounds] — materializing every distinct
      (label, start) trajectory the sweep needs;
    - [scan_ns * configs * probe_rounds] — one array scan per
      configuration, its length estimated by the probe;
    - [sim_ns * configs * probe_rounds] — the reference simulator's
      per-round cost over the same configurations.

    [probe_rounds] comes from running the sweep's {e first}
    configuration through the reference simulator; its outcome is reused
    as that configuration's result (both paths agree exactly — the
    equivalence is property-tested), so probing costs nothing beyond the
    decision itself.  The per-round constants are {e measured once per
    process} on synthetic ring kernels ({!constants}) rather than
    hard-coded, so the model tracks the machine it runs on.

    The choice never affects results — both paths are byte-equivalent —
    only which one runs; CI's RV_NO_TRAJ byte-comparison enforces this. *)

type features = {
  configs : int;  (** configurations (pair x position x delay cells) *)
  build_rounds : int;
      (** total {e active} (explore) rounds across the distinct
          (label, start) trajectories the sweep would materialize — a
          pause is one segment in {!Rv_sim.Traj.of_blocks} and costs
          nothing per round *)
  probe_rounds : int;  (** [rounds_run] of the probe configuration *)
}

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

val decide : constants -> features -> bool
(** [decide c f] is [true] when the model predicts the trajectory path
    is cheaper.  Pure — tests exercise it with synthetic constants. *)

val use_traj : features -> bool
(** [decide (constants ()) f]. *)

val small_sweep_configs : int
(** Sweeps with fewer configurations than this skip the probe entirely
    and keep the reference path: they finish in tens of microseconds on
    either kernel, so the probe (one full reference simulation plus the
    feature computation) costs more than any decision could save.  The
    trajectory path's wins all come from sweeps orders of magnitude past
    this floor. *)

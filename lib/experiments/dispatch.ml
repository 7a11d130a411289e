module Ex = Rv_explore.Explorer

type constants = { build_ns : float; scan_ns : float; sim_ns : float }

(* Calibration kernels: two agents walking clockwise on an oriented ring
   at constant separation — they never meet, never cross, so every loop
   runs its full horizon and the measured figure is a clean per-round
   cost.  8192 rounds keeps the whole thing in cache and under a
   millisecond; the minimum of three reps discards scheduler noise.
   Timing uses Rv_obs.Obs.now_us, the tree's one sanctioned clock; the
   result reaches no sweep and no output byte, so determinism (lint R1's
   concern) is preserved. *)
let calib_rounds = 8192

let time_ns_per_round f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Rv_obs.Obs.now_us () in
    f ();
    let dt = Rv_obs.Obs.now_us () -. t0 in
    if dt < !best then best := dt
  done;
  !best *. 1000.0 /. float_of_int calib_rounds

let calibrate () =
  let g = Rv_graph.Ring.oriented 8 in
  let step _obs = Ex.Move 0 in
  let ta = Rv_sim.Traj.of_schedule ~g ~start:0 ~rounds:calib_rounds step in
  let tb = Rv_sim.Traj.of_schedule ~g ~start:4 ~rounds:calib_rounds step in
  let build_ns =
    time_ns_per_round (fun () ->
        ignore (Rv_sim.Traj.of_schedule ~g ~start:0 ~rounds:calib_rounds step))
  in
  let scan_ns =
    time_ns_per_round (fun () ->
        ignore
          (Rv_sim.Traj.meet ~a:ta ~b:tb ~delay_a:0 ~delay_b:0 ~max_rounds:calib_rounds))
  in
  let sim_ns =
    time_ns_per_round (fun () ->
        ignore
          (Rv_sim.Sim.run ~g ~max_rounds:calib_rounds
             { Rv_sim.Sim.start = 0; delay = 0; step }
             { Rv_sim.Sim.start = 4; delay = 0; step }))
  in
  { build_ns; scan_ns; sim_ns }

let cache : constants option Atomic.t = Atomic.make None

let constants () =
  match Atomic.get cache with
  | Some c -> c
  | None ->
      let c = calibrate () in
      (* First finished measurement wins; a concurrent loser adopts it so
         every caller in the process reads the same figures. *)
      if Atomic.compare_and_set cache None (Some c) then c
      else ( match Atomic.get cache with Some c' -> c' | None -> c)

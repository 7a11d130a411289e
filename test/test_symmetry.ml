(* Tests for the symmetry-reduced sweep (rv_graph Symmetry + the
   Workload quotient): detected group orders per family, witness
   checking, canonical-pair properties, and — the load-bearing one —
   full-record equality of the reduced and unreduced sweeps across
   graph families, algorithms and seeded delay draws.  Also checks that
   a reduced sweep derives one image per label pair and representative
   and caches only start-0 walks, and that the dispatch calibration still
   measures positive figures. *)

module Pg = Rv_graph.Port_graph
module Sym = Rv_graph.Symmetry
module R = Rv_core.Rendezvous
module Rng = Rv_util.Rng
module W = Rv_experiments.Workload
module D = Rv_experiments.Dispatch

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------- group detection *)

let test_group_orders () =
  let cases =
    [
      ("ring:8", Rv_graph.Ring.oriented 8, 8, true);
      ("ring:12", Rv_graph.Ring.oriented 12, 12, true);
      ("torus:3x4", Rv_graph.Torus.make ~rows:3 ~cols:4, 12, true);
      ("hypercube:3", Rv_graph.Hypercube.make ~dim:3, 8, true);
      ("hypercube:4", Rv_graph.Hypercube.make ~dim:4, 16, true);
      ("circulant:7", Rv_graph.Complete_graph.circulant 7, 7, true);
      (* Rank port numbering breaks every nonidentity bijection. *)
      ("complete:7", Rv_graph.Complete_graph.make 7, 1, false);
      ("grid:3x4", Rv_graph.Grid.make ~rows:3 ~cols:4, 1, false);
    ]
  in
  List.iter
    (fun (name, g, expect_order, expect_reducible) ->
      let s = Sym.detect g in
      Alcotest.(check int) (name ^ " order") expect_order (Sym.order s);
      Alcotest.(check bool)
        (name ^ " reducible") expect_reducible (Sym.reducible s);
      if expect_reducible then
        Alcotest.(check bool) (name ^ " transitive") true (Sym.transitive s))
    cases

let test_intransitive_families_not_reduced () =
  List.iter
    (fun (name, g) ->
      let s = Sym.detect g in
      Alcotest.(check bool) (name ^ " not reducible") false (Sym.reducible s);
      Alcotest.(check string) (name ^ " trivial") "trivial" (Sym.group_name s))
    [
      ("tree (path:6)", Rv_graph.Tree.path 6);
      ("random:10:4", Rv_graph.Random_graph.connected (Rng.create ~seed:7) ~n:10 ~extra_edges:4);
    ]

(* ------------------------------------------------- witness checking *)

let test_check_witness () =
  let g = Rv_graph.Ring.oriented 8 in
  let s = Sym.detect g in
  (* Every detected automorphism re-verifies. *)
  Array.iter
    (fun phi ->
      match Sym.check_witness g phi with
      | Ok () -> ()
      | Error e -> Alcotest.failf "detected witness rejected: %s" e)
    (Sym.automorphisms s);
  (* A non-bijection is rejected. *)
  (match Sym.check_witness g [| 0; 0; 1; 2; 3; 4; 5; 6 |] with
  | Ok () -> Alcotest.fail "non-bijection accepted"
  | Error _ -> ());
  (* A bijection that is not port-preserving is rejected: reflection
     reverses the port sense on the oriented ring. *)
  let reflection = Array.init 8 (fun i -> (8 - i) mod 8) in
  (match Sym.check_witness g reflection with
  | Ok () -> Alcotest.fail "reflection accepted on oriented ring"
  | Error _ -> ());
  (* Wrong length is rejected, not out-of-bounds. *)
  match Sym.check_witness g [| 0; 1; 2 |] with
  | Ok () -> Alcotest.fail "short witness accepted"
  | Error _ -> ()

let test_canon_pair_properties () =
  List.iter
    (fun (name, g) ->
      let s = Sym.detect g in
      let n = Pg.n g in
      Alcotest.(check bool) (name ^ " reducible") true (Sym.reducible s);
      let autos = Sym.automorphisms s in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if a <> b then begin
            let ca, cb = Sym.canon_pair s a b in
            (* Representative is in canonical form and is a valid pair. *)
            Alcotest.(check int) (Printf.sprintf "%s (%d,%d) first" name a b) 0 ca;
            Alcotest.(check bool)
              (Printf.sprintf "%s (%d,%d) distinct" name a b)
              true (cb <> 0);
            (* Orbit invariance: every image maps to the same rep. *)
            Array.iter
              (fun phi ->
                let ca', cb' = Sym.canon_pair s phi.(a) phi.(b) in
                Alcotest.(check (pair int int))
                  (Printf.sprintf "%s orbit of (%d,%d)" name a b)
                  (ca, cb) (ca', cb'))
              autos;
            (* Idempotence: the rep is its own rep. *)
            let ca', cb' = Sym.canon_pair s ca cb in
            Alcotest.(check (pair int int))
              (Printf.sprintf "%s rep of rep (%d,%d)" name a b)
              (ca, cb) (ca', cb')
          end
        done
      done)
    [
      ("ring:8", Rv_graph.Ring.oriented 8);
      ("torus:3x4", Rv_graph.Torus.make ~rows:3 ~cols:4);
      ("hypercube:3", Rv_graph.Hypercube.make ~dim:3);
      ("circulant:6", Rv_graph.Complete_graph.circulant 6);
    ]

(* -------------------------------- reduced sweep == unreduced sweep *)

(* The whole contract: with `All_pairs positions the reduced sweep must
   reproduce the unreduced one record for record (full Record.t
   equality, which pins every outcome field and the stream order) and
   return the same worst cell — across families, algorithms and seeded
   delay draws.  [sym:false] runs the identical code with the quotient
   disabled, standing in for RV_NO_SYM=1.  The families are
   Sym_families.reduced. *)
let run_sweep ~sym ~g ~explorer ~algorithm ~space ~pairs ~delays =
  let sink = Rv_engine.Sink.memory () in
  let result =
    W.worst_for ~sym ~g ~algorithm ~space ~explorer ~pairs
      ~positions:`All_pairs ~delays ~sink ()
  in
  (result, Rv_engine.Sink.records sink)

(* The same sweep with no sink attached but a Progress.t: the worst
   cell, the progress counters and Stats.covered. *)
let run_sinkless ~sym ~g ~explorer ~algorithm ~space ~pairs ~delays =
  let progress = Rv_engine.Progress.create ~total:(List.length pairs) () in
  W.Stats.reset ();
  let result =
    W.worst_for ~sym ~progress ~g ~algorithm ~space ~explorer ~pairs
      ~positions:`All_pairs ~delays ()
  in
  let st = W.Stats.snapshot () in
  if sym then
    Alcotest.(check bool) "sink-less reduction engaged" true (st.W.Stats.orbit_size > 1);
  (result, progress, st.W.Stats.covered)

let test_reduced_matches_unreduced () =
  let rng = Rng.create ~seed:0x53b1 in
  let space = 16 in
  List.iter
    (fun (fam, g, explorer) ->
      let e = (explorer ~start:0).Rv_explore.Explorer.bound in
      List.iter
        (fun algorithm ->
          (* Three seeded delay draws per (family, algorithm), spanning
             the boundaries the normalization cares about. *)
          for draw = 1 to 3 do
            let d () = Rng.choose rng [| 0; 1; e; e + 1 |] in
            let delays =
              List.sort_uniq Rv_util.Ord.(pair int int) [ (0, 0); (d (), d ()) ]
            in
            let pairs = W.sample_pairs ~space ~max_pairs:3 in
            let id = Printf.sprintf "%s %s draw%d" fam (R.name algorithm) draw in
            W.Stats.reset ();
            let rr, recr =
              run_sweep ~sym:true ~g ~explorer ~algorithm ~space ~pairs ~delays
            in
            let reduced_stats = W.Stats.snapshot () in
            let ru, recu =
              run_sweep ~sym:false ~g ~explorer ~algorithm ~space ~pairs ~delays
            in
            Alcotest.(check bool) (id ^ " same worst") true (rr = ru);
            Alcotest.(check int)
              (id ^ " same record count")
              (List.length recu) (List.length recr);
            List.iter2
              (fun a b ->
                Alcotest.(check bool) (id ^ " record equal") true (a = b))
              recr recu;
            (* And the reduction actually engaged: fewer cells simulated
               than covered, by exactly the group order. *)
            Alcotest.(check bool)
              (id ^ " reduction engaged")
              true
              (reduced_stats.W.Stats.orbit_size > 1);
            (* Without a sink the reduced sweep folds the table instead of
               replaying it: same worst cell, coverage and progress. *)
            let sr, pr, cr =
              run_sinkless ~sym:true ~g ~explorer ~algorithm ~space ~pairs ~delays
            in
            let su, pu, cu =
              run_sinkless ~sym:false ~g ~explorer ~algorithm ~space ~pairs ~delays
            in
            let worst = Alcotest.(result (pair int int) string) in
            Alcotest.check worst (id ^ " sink-less same worst") su sr;
            Alcotest.check worst (id ^ " sink-less = sunk") rr sr;
            Alcotest.(check int) (id ^ " sink-less covered") cu cr;
            Alcotest.(check int)
              (id ^ " covered = records") (List.length recu) cr;
            Alcotest.(check int)
              (id ^ " progress worst time")
              (Rv_engine.Progress.worst_time pu)
              (Rv_engine.Progress.worst_time pr);
            Alcotest.(check int)
              (id ^ " progress worst cost")
              (Rv_engine.Progress.worst_cost pu)
              (Rv_engine.Progress.worst_cost pr);
            Alcotest.(check int)
              (id ^ " progress completed")
              (Rv_engine.Progress.completed pu)
              (Rv_engine.Progress.completed pr)
          done)
        [ R.Cheap; R.Fast; R.Fwr 2 ])
    (Sym_families.reduced ())

(* A pair that fails: Cheap_simultaneous is not delay-tolerant, and the
   (7,0) delay misses from starts 0/1.  The reduced sweep must report the
   first failure of the unreduced stream, with its actual starts — so
   without a sink it may not fold the table, and must replay. *)
let test_failure_replays () =
  let g = Rv_graph.Ring.oriented 8 in
  let explorer ~start:_ = Rv_explore.Ring_walk.clockwise ~n:8 in
  let expected =
    Error "cheap-sim: no rendezvous (labels 1/2, starts 0/1, delays 7/0)"
  in
  List.iter
    (fun (sym, sunk) ->
      let sink = if sunk then Some (Rv_engine.Sink.memory ()) else None in
      let r =
        W.worst_for ~sym ?sink ~g ~algorithm:R.Cheap_simultaneous ~space:8 ~explorer
          ~pairs:[ (1, 2); (2, 3) ]
          ~positions:`All_pairs
          ~delays:[ (0, 0); (7, 0) ]
          ()
      in
      let id = Printf.sprintf "sym %b sink %b" sym sunk in
      Alcotest.(check (result (pair int int) string)) id expected r)
    [ (true, false); (true, true); (false, false); (false, true) ]

let test_unreducible_families_report_none () =
  (* Tree and random graphs have no usable group: the sweep must fall
     back to the unreduced path and say so in the stats. *)
  let space = 8 in
  List.iter
    (fun (fam, g) ->
      let explorer ~start = Rv_explore.Map_dfs.returning g ~start in
      let pairs = W.sample_pairs ~space ~max_pairs:2 in
      W.Stats.reset ();
      let r =
        W.worst_for ~g ~algorithm:R.Fast ~space ~explorer ~pairs
          ~positions:`All_pairs ~delays:[ (0, 0) ] ()
      in
      let s = W.Stats.snapshot () in
      Alcotest.(check bool) (fam ^ " swept") true (Result.is_ok r);
      Alcotest.(check string) (fam ^ " group none") "none" s.W.Stats.sym_group;
      Alcotest.(check int) (fam ^ " orbit 1") 1 s.W.Stats.orbit_size)
    [
      ("tree (path:6)", Rv_graph.Tree.path 6);
      ("random:8:4", Rv_graph.Random_graph.connected (Rng.create ~seed:3) ~n:8 ~extra_edges:4);
    ]

(* ------------------------------------------------- image accounting *)

(* On the trajectory kernel a reduced sweep derives the walk from each
   representative's start where it is scanned: one image per label pair
   and representative, and only the labels' start-0 walks enter the
   trajectory cache — rv sweep -g ring:16 -L 16 --all-pairs, whose 8
   default pairs span 10 labels.  A 2-domain pool derives the same
   images. *)
let test_one_image_per_representative () =
  let space = 16 in
  let g = Rv_graph.Ring.oriented space in
  let explorer ~start:_ = Rv_explore.Ring_walk.clockwise ~n:space in
  let pairs = W.sample_pairs ~space ~max_pairs:8 in
  let delays = W.sampled_delays R.Fast ~max_delay:8 in
  let sweep ?pool ~sym () =
    W.Stats.reset ();
    Rv_sim.Traj_cache.reset_stats ();
    let r =
      W.worst_for ?pool ~dispatch:`Fast ~sym ~g ~algorithm:R.Fast ~space ~explorer ~pairs
        ~positions:`All_pairs ~delays ()
    in
    (r, W.Stats.snapshot (), Rv_sim.Traj_cache.stats ())
  in
  let labels = List.sort_uniq Int.compare (List.concat_map (fun (a, b) -> [ a; b ]) pairs) in
  Alcotest.(check int) "labels" 10 (List.length labels);
  let worst = Alcotest.(result (pair int int) string) in
  let r, st, cs = sweep ~sym:true () in
  Alcotest.(check string) "reduced" "order-16" st.W.Stats.sym_group;
  Alcotest.(check int) "images" 120 st.W.Stats.image_trajs;
  Alcotest.(check int) "cache misses: start-0 walks only" 10 cs.Rv_sim.Traj_cache.misses;
  let ru, _, _ = sweep ~sym:false () in
  Alcotest.check worst "worst = unreduced" ru r;
  let rp, stp, _ =
    Rv_engine.Pool.with_pool ~jobs:2 (fun pool -> sweep ~pool ~sym:true ())
  in
  Alcotest.(check int) "2 domains: images" 120 stp.W.Stats.image_trajs;
  Alcotest.check worst "2 domains: same worst" r rp

(* ------------------------------------------------- dispatch model *)

(* The repository benchmark times the calibration for its
   dispatch.calibrate_ms row, so it must keep measuring something. *)
let test_dispatch_constants () =
  let m = D.constants () in
  Alcotest.(check bool) "build_ns > 0" true (m.D.build_ns > 0.);
  Alcotest.(check bool) "scan_ns > 0" true (m.D.scan_ns > 0.);
  Alcotest.(check bool) "sim_ns > 0" true (m.D.sim_ns > 0.)

let () =
  Alcotest.run "rv_symmetry"
    [
      ( "group",
        [
          tc "detected orders per family" test_group_orders;
          tc "trees and random graphs are trivial"
            test_intransitive_families_not_reduced;
          tc "check_witness proves and refutes" test_check_witness;
          tc "canon_pair: canonical, orbit-invariant, idempotent"
            test_canon_pair_properties;
        ] );
      ( "sweep",
        [
          tc "reduced == unreduced (4 families x 3 algorithms x 3 draws)"
            test_reduced_matches_unreduced;
          tc "a failing pair replays: same error, sym on/off, sink on/off"
            test_failure_replays;
          tc "unreducible families fall back and report none"
            test_unreducible_families_report_none;
          tc "one image per pair and representative, start-0 walks cached"
            test_one_image_per_representative;
        ] );
      ("dispatch", [ tc "calibrated constants are positive" test_dispatch_constants ]);
    ]

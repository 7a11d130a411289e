(* Tests for the trajectory fast path (rv_sim Traj / Traj_cache): the
   materialized-walk meeting scan must reproduce the reference simulator
   outcome field-for-field across graph families, algorithms and random
   delay offsets; the block constructor must agree with the generic one;
   crossings must be caught exactly at the wake boundary; and the
   per-domain cache must account hits, misses and eviction correctly. *)

module Pg = Rv_graph.Port_graph
module Ex = Rv_explore.Explorer
module Sim = Rv_sim.Sim
module Traj = Rv_sim.Traj
module Traj_cache = Rv_sim.Traj_cache
module Sched = Rv_core.Schedule
module R = Rv_core.Rendezvous
module Rng = Rv_util.Rng
module W = Rv_experiments.Workload

let tc name f = Alcotest.test_case name `Quick f

(* Same three families as test_engine: oriented ring, grid (map DFS, so
   the walk genuinely depends on the start), torus (Euler walk). *)
let families () =
  let ring_n = 12 in
  let grid = Rv_graph.Grid.make ~rows:3 ~cols:4 in
  let torus = Rv_graph.Torus.make ~rows:3 ~cols:4 in
  [
    ( "ring:12",
      Rv_graph.Ring.oriented ring_n,
      fun ~start ->
        ignore start;
        Rv_explore.Ring_walk.clockwise ~n:ring_n );
    ("grid:3x4", grid, fun ~start -> Rv_explore.Map_dfs.returning grid ~start);
    ("torus:3x4", torus, fun ~start -> Rv_explore.Euler_walk.closed torus ~start);
  ]

let blocks_of ~algorithm ~space ~explorer ~label ~start =
  List.map
    (function
      | Sched.Pause k -> Traj.Still k
      | Sched.Explore e -> Traj.Run (e.Ex.fresh (), e.Ex.bound))
    (R.schedule algorithm ~space ~label ~explorer:(explorer ~start))

let traj_of ~g ~algorithm ~space ~explorer ~label ~start =
  Traj.of_blocks ~g ~start (blocks_of ~algorithm ~space ~explorer ~label ~start)

let check_same_traj id (want : Traj.t) (got : Traj.t) =
  Alcotest.(check int) (id ^ " start") want.Traj.start got.Traj.start;
  Alcotest.(check int) (id ^ " rounds") want.Traj.rounds got.Traj.rounds;
  Alcotest.(check int) (id ^ " first_move") want.Traj.first_move got.Traj.first_move;
  Alcotest.(check (array int)) (id ^ " pos") want.Traj.pos got.Traj.pos;
  Alcotest.(check (array int)) (id ^ " port") want.Traj.port got.Traj.port;
  Alcotest.(check (array int)) (id ^ " moves") want.Traj.moves got.Traj.moves

(* ------------------------------------------------- constructor agreement *)

let test_of_blocks_matches_of_schedule () =
  List.iter
    (fun (fam, g, explorer) ->
      List.iter
        (fun algorithm ->
          let space = 16 in
          List.iter
            (fun label ->
              List.iter
                (fun start ->
                  let sched =
                    R.schedule algorithm ~space ~label ~explorer:(explorer ~start)
                  in
                  let generic =
                    Traj.of_schedule ~g ~start ~rounds:(Sched.duration sched)
                      (Sched.to_instance sched)
                  in
                  let blocks =
                    traj_of ~g ~algorithm ~space ~explorer ~label ~start
                  in
                  let id =
                    Printf.sprintf "%s %s l=%d s=%d" fam (R.name algorithm) label
                      start
                  in
                  check_same_traj id generic blocks)
                [ 0; 3; Pg.n g - 1 ])
            [ 1; 5; 16 ])
        [ R.Cheap; R.Fast; R.Fwr 2 ])
    (families ())

(* -------------------------------------------- property: meet == Sim.run *)

let scripted actions =
  let remaining = ref actions in
  fun (_ : Ex.observation) ->
    match !remaining with
    | [] -> Ex.Wait
    | a :: rest ->
        remaining := rest;
        a

let check_meet_matches_run ~id ~g ~explorer ~algorithm ~space ~la ~lb ~pa ~pb ~da
    ~db =
  let out =
    R.run ~g ~explorer ~algorithm ~space
      { R.label = la; start = pa; delay = da }
      { R.label = lb; start = pb; delay = db }
  in
  let ta = traj_of ~g ~algorithm ~space ~explorer ~label:la ~start:pa in
  let tb = traj_of ~g ~algorithm ~space ~explorer ~label:lb ~start:pb in
  (* Same horizon Rendezvous.run defaults to (and the sweep fast path
     uses): schedule duration plus the later wake, plus one. *)
  let max_rounds = max (ta.Traj.rounds + da) (tb.Traj.rounds + db) + 1 in
  let m = Traj.meet ~a:ta ~b:tb ~delay_a:da ~delay_b:db ~max_rounds in
  Alcotest.(check bool) (id ^ " met") out.Sim.met m.Traj.met;
  Alcotest.(check (option int))
    (id ^ " meeting_round") out.Sim.meeting_round m.Traj.meeting_round;
  Alcotest.(check (option int))
    (id ^ " meeting_node") out.Sim.meeting_node m.Traj.meeting_node;
  Alcotest.(check int) (id ^ " cost") out.Sim.cost m.Traj.cost;
  Alcotest.(check int) (id ^ " cost_a") out.Sim.cost_a m.Traj.cost_a;
  Alcotest.(check int) (id ^ " cost_b") out.Sim.cost_b m.Traj.cost_b;
  Alcotest.(check int) (id ^ " rounds_run") out.Sim.rounds_run m.Traj.rounds_run;
  Alcotest.(check int) (id ^ " crossings") out.Sim.crossings m.Traj.crossings

(* Same property for the parachute model: walks are model-independent
   (both agents follow their schedules; presence only gates detection),
   so meet_intervals — the scan with the detection window opened at the
   later wake — must reproduce Sim.run under ~model:Parachute field for
   field, including the absent-until-wake boundary cases. *)
let check_meet_intervals_matches_run ~id ~g ~explorer ~algorithm ~space ~la ~lb
    ~pa ~pb ~da ~db =
  let out =
    R.run ~model:Sim.Parachute ~g ~explorer ~algorithm ~space
      { R.label = la; start = pa; delay = da }
      { R.label = lb; start = pb; delay = db }
  in
  let ta = traj_of ~g ~algorithm ~space ~explorer ~label:la ~start:pa in
  let tb = traj_of ~g ~algorithm ~space ~explorer ~label:lb ~start:pb in
  let max_rounds = max (ta.Traj.rounds + da) (tb.Traj.rounds + db) + 1 in
  let m = Traj.meet_intervals ~a:ta ~b:tb ~delay_a:da ~delay_b:db ~max_rounds in
  Alcotest.(check bool) (id ^ " met") out.Sim.met m.Traj.met;
  Alcotest.(check (option int))
    (id ^ " meeting_round") out.Sim.meeting_round m.Traj.meeting_round;
  Alcotest.(check (option int))
    (id ^ " meeting_node") out.Sim.meeting_node m.Traj.meeting_node;
  Alcotest.(check int) (id ^ " cost") out.Sim.cost m.Traj.cost;
  Alcotest.(check int) (id ^ " cost_a") out.Sim.cost_a m.Traj.cost_a;
  Alcotest.(check int) (id ^ " cost_b") out.Sim.cost_b m.Traj.cost_b;
  Alcotest.(check int) (id ^ " rounds_run") out.Sim.rounds_run m.Traj.rounds_run;
  Alcotest.(check int) (id ^ " crossings") out.Sim.crossings m.Traj.crossings

let test_meet_matches_sim_run () =
  let rng = Rng.create ~seed:0x7247 in
  let space = 16 in
  List.iter
    (fun (fam, g, explorer) ->
      let n = Pg.n g in
      let e = (explorer ~start:0).Ex.bound in
      List.iter
        (fun algorithm ->
          for draw = 1 to 12 do
            let la = 1 + Rng.int rng space in
            let lb =
              let l = 1 + Rng.int rng (space - 1) in
              if l >= la then l + 1 else l
            in
            let pa = Rng.int rng n in
            let pb =
              let p = Rng.int rng (n - 1) in
              if p >= pa then p + 1 else p
            in
            (* Delays span the interesting boundaries: simultaneous,
               off-by-one, around E, and far beyond — with a nonzero
               common prefix in roughly half the draws to exercise the
               normalization. *)
            let d () =
              Rng.choose rng [| 0; 1; 2; e - 1; e; e + 1; (2 * e) + 2 |]
            in
            let shift = if Rng.bool rng then d () else 0 in
            let da = d () + shift and db = d () + shift in
            let id =
              Printf.sprintf "%s %s draw%d (l %d/%d, s %d/%d, d %d/%d)" fam
                (R.name algorithm) draw la lb pa pb da db
            in
            check_meet_matches_run ~id ~g ~explorer ~algorithm ~space ~la ~lb ~pa
              ~pb ~da ~db
          done)
        [ R.Cheap; R.Fast; R.Fwr 2 ])
    (families ())

let test_meet_intervals_matches_sim_run () =
  let rng = Rng.create ~seed:0x9e11 in
  let space = 16 in
  List.iter
    (fun (fam, g, explorer) ->
      let n = Pg.n g in
      let e = (explorer ~start:0).Ex.bound in
      List.iter
        (fun algorithm ->
          for draw = 1 to 12 do
            let la = 1 + Rng.int rng space in
            let lb =
              let l = 1 + Rng.int rng (space - 1) in
              if l >= la then l + 1 else l
            in
            let pa = Rng.int rng n in
            let pb =
              let p = Rng.int rng (n - 1) in
              if p >= pa then p + 1 else p
            in
            let d () =
              Rng.choose rng [| 0; 1; 2; e - 1; e; e + 1; (2 * e) + 2 |]
            in
            let shift = if Rng.bool rng then d () else 0 in
            let da = d () + shift and db = d () + shift in
            let id =
              Printf.sprintf "%s %s parachute draw%d (l %d/%d, s %d/%d, d %d/%d)"
                fam (R.name algorithm) draw la lb pa pb da db
            in
            check_meet_intervals_matches_run ~id ~g ~explorer ~algorithm ~space
              ~la ~lb ~pa ~pb ~da ~db
          done)
        [ R.Cheap; R.Fast; R.Fwr 2 ])
    (families ());
  (* Placement meeting with both agents pinned: A's schedule ends on the
     sleeper's node, but the sleeper is absent through its delay rounds —
     the earliest detectable round is its first present round (delay+1),
     after both schedules have run out.  (The waiting model would meet at
     round 3.) *)
  let g = Rv_graph.Ring.oriented 6 in
  let walker =
    Traj.of_schedule ~g ~start:0 ~rounds:3
      (scripted [ Ex.Move 0; Ex.Move 0; Ex.Move 0 ])
  in
  let sleeper = Traj.of_schedule ~g ~start:3 ~rounds:0 (scripted []) in
  let m =
    Traj.meet_intervals ~a:walker ~b:sleeper ~delay_a:0 ~delay_b:5 ~max_rounds:10
  in
  Alcotest.(check bool) "placement meeting" true m.Traj.met;
  Alcotest.(check (option int)) "at the later wake" (Some 6) m.Traj.meeting_round;
  let out =
    Sim.run ~model:Sim.Parachute ~g ~max_rounds:10
      { Sim.start = 0; delay = 0; step = scripted [ Ex.Move 0; Ex.Move 0; Ex.Move 0 ] }
      { Sim.start = 3; delay = 5; step = scripted [] }
  in
  Alcotest.(check (option int))
    "sim agrees on placement" out.Sim.meeting_round m.Traj.meeting_round;
  (* Waiting-model contrast on the same walks. *)
  let mw = Traj.meet ~a:walker ~b:sleeper ~delay_a:0 ~delay_b:5 ~max_rounds:10 in
  Alcotest.(check (option int)) "waiting meets at arrival" (Some 3) mw.Traj.meeting_round

(* ------------------------------------------- crossing at the wake boundary *)

let test_crossing_at_delay_boundary () =
  (* Ring of 6.  A walks clockwise every round from node 0; B wakes with
     delay 2 at node 3 and immediately steps counter-clockwise.  In round
     3 — B's first active round — A goes 2 -> 3 while B goes 3 -> 2: an
     unnoticed crossing on the very round the delay ends. *)
  let g = Rv_graph.Ring.oriented 6 in
  let ta =
    Traj.of_schedule ~g ~start:0 ~rounds:6
      (scripted (List.init 6 (fun _ -> Ex.Move 0)))
  in
  let tb = Traj.of_schedule ~g ~start:3 ~rounds:1 (scripted [ Ex.Move 1 ]) in
  let m = Traj.meet ~a:ta ~b:tb ~delay_a:0 ~delay_b:2 ~max_rounds:10 in
  Alcotest.(check bool) "crossed, not met" false m.Traj.met;
  Alcotest.(check int) "one crossing" 1 m.Traj.crossings;
  (* And the reference simulator agrees on the boundary case. *)
  let out =
    Sim.run ~g ~max_rounds:10
      { Sim.start = 0; delay = 0; step = scripted (List.init 6 (fun _ -> Ex.Move 0)) }
      { Sim.start = 3; delay = 2; step = scripted [ Ex.Move 1 ] }
  in
  Alcotest.(check int) "sim agrees" out.Sim.crossings m.Traj.crossings;
  (* One round of delay less and the same walks collide head-on instead:
     in round 2 A steps 1 -> 2 while B steps 3 -> 2 — a meeting at node
     2, not a crossing. *)
  let m = Traj.meet ~a:ta ~b:tb ~delay_a:0 ~delay_b:1 ~max_rounds:10 in
  Alcotest.(check int) "no crossing" 0 m.Traj.crossings;
  Alcotest.(check (option int)) "head-on meeting" (Some 2) m.Traj.meeting_round;
  Alcotest.(check (option int)) "at node 2" (Some 2) m.Traj.meeting_node

let test_meeting_at_wake_boundary () =
  (* A reaches B's start on exactly the last round of B's sleep: in the
     waiting model the sleeper is present, so they meet. *)
  let g = Rv_graph.Ring.oriented 6 in
  let ta =
    Traj.of_schedule ~g ~start:0 ~rounds:4
      (scripted [ Ex.Move 0; Ex.Move 0; Ex.Move 0; Ex.Move 0 ])
  in
  let tb = Traj.of_schedule ~g ~start:3 ~rounds:1 (scripted [ Ex.Move 0 ]) in
  let m = Traj.meet ~a:ta ~b:tb ~delay_a:0 ~delay_b:3 ~max_rounds:10 in
  Alcotest.(check bool) "met while asleep" true m.Traj.met;
  Alcotest.(check (option int)) "at round 3" (Some 3) m.Traj.meeting_round;
  Alcotest.(check (option int)) "at node 3" (Some 3) m.Traj.meeting_node;
  (* One round less sleep and B steps away just as A arrives: the round-3
     configuration becomes a crossing-free miss at node 3, and they only
     meet when A catches up at node 4. *)
  let m = Traj.meet ~a:ta ~b:tb ~delay_a:0 ~delay_b:2 ~max_rounds:10 in
  Alcotest.(check (option int)) "deferred meeting" (Some 4) m.Traj.meeting_round;
  Alcotest.(check (option int)) "caught at node 4" (Some 4) m.Traj.meeting_node

(* ------------------------------------ automorphic images, streamed check *)

module Sym = Rv_graph.Symmetry

let algorithms = [ R.Cheap; R.Fast; R.Fwr 2 ]

(* On a certifying family the walk from phi(0) is the image of the walk
   from 0, field for field — what the reduced sweep's cache relies on. *)
let test_image_matches_of_blocks () =
  let rng = Rng.create ~seed:0x1a6e in
  let space = 16 in
  List.iter
    (fun (fam, g, explorer) ->
      let autos = Sym.automorphisms (Sym.detect g) in
      List.iter
        (fun algorithm ->
          for _ = 1 to 3 do
            let label = 1 + Rng.int rng space in
            let t0 = traj_of ~g ~algorithm ~space ~explorer ~label ~start:0 in
            Array.iter
              (fun phi ->
                let start = phi.(0) in
                check_same_traj
                  (Printf.sprintf "%s %s l=%d image to %d" fam (R.name algorithm)
                     label start)
                  (traj_of ~g ~algorithm ~space ~explorer ~label ~start)
                  (Traj.image phi t0))
              autos
          done)
        algorithms)
    (Sym_families.reduced ())

let same_ints a b = Array.length a = Array.length b && Array.for_all2 Int.equal a b

(* The streamed check against its definition — build both walks, compare
   round counts and ports — from every phi(0).  Every label certifies on
   the reduced families; the Hamiltonian-cycle walk on the torus follows
   node identities, and no label does. *)
let test_same_ports_agrees_with_builds () =
  let space = 16 in
  let ham_torus = Rv_graph.Torus.make ~rows:3 ~cols:4 in
  let cycle = Rv_graph.Torus.hamiltonian_cycle ~rows:3 ~cols:4 in
  let families =
    List.map (fun (fam, g, explorer) -> (fam, g, explorer, true)) (Sym_families.reduced ())
    @ [
        ( "torus:3x4 ham",
          ham_torus,
          (fun ~start -> Rv_explore.Ham_walk.make ham_torus ~cycle ~start),
          false );
      ]
  in
  List.iter
    (fun (fam, g, explorer, certifies) ->
      let obs = Traj.observations g in
      let autos = Sym.automorphisms (Sym.detect g) in
      List.iter
        (fun algorithm ->
          List.iter
            (fun label ->
              let t0 = traj_of ~g ~algorithm ~space ~explorer ~label ~start:0 in
              let all = ref true in
              Array.iter
                (fun phi ->
                  let start = phi.(0) in
                  let id =
                    Printf.sprintf "%s %s l=%d from %d" fam (R.name algorithm) label start
                  in
                  let built = traj_of ~g ~algorithm ~space ~explorer ~label ~start in
                  let streamed =
                    Traj.same_ports obs ~start
                      (blocks_of ~algorithm ~space ~explorer ~label ~start)
                      t0
                  in
                  Alcotest.(check bool)
                    id
                    (built.Traj.rounds = t0.Traj.rounds
                    && same_ints built.Traj.port t0.Traj.port)
                    streamed;
                  if not streamed then all := false)
                autos;
              Alcotest.(check bool)
                (Printf.sprintf "%s %s l=%d certifies" fam (R.name algorithm) label)
                certifies !all)
            [ 1; 5; 16 ])
        algorithms)
    families

let always p (_ : Ex.observation) = Ex.Move p

let test_same_ports_crafted () =
  let g = Rv_graph.Ring.oriented 6 in
  let obs = Traj.observations g in
  let check id expect blocks t =
    Alcotest.(check bool) id expect (Traj.same_ports obs ~start:1 blocks t)
  in
  let clockwise = Traj.of_blocks ~g ~start:0 [ Traj.Run (always 0, 4) ] in
  check "same walk" true [ Traj.Run (always 0, 4) ] clockwise;
  check "turns back in the final round only" false
    [ Traj.Run (scripted [ Ex.Move 0; Ex.Move 0; Ex.Move 0; Ex.Move 1 ], 4) ]
    clockwise;
  check "one round longer" false [ Traj.Run (always 0, 5) ] clockwise;
  check "pauses where the walk moves" false
    [ Traj.Run (always 0, 2); Traj.Still 2 ]
    clockwise;
  (* Turns back unless it just entered through a port: after a pause
     there is no entry port, so it turns back — in both walkers. *)
  let turn_back_fresh (o : Ex.observation) =
    match o.Ex.entry with None -> Ex.Move 1 | Some _ -> Ex.Move 0
  in
  let paused next = [ Traj.Run (always 0, 2); Traj.Still 2; Traj.Run (next, 1) ] in
  let ahead = Traj.of_blocks ~g ~start:0 (paused (always 0)) in
  let back = Traj.of_blocks ~g ~start:0 (paused turn_back_fresh) in
  check "diverges after the pause" false (paused turn_back_fresh) ahead;
  check "pause resets the entry port alike" true (paused turn_back_fresh) back;
  (* An invalid port raises exactly what of_blocks raises. *)
  let raised f = match f () with _ -> None | exception Invalid_argument m -> Some m in
  let bad = [ Traj.Run (always 5, 1) ] in
  let one = Traj.of_blocks ~g ~start:0 [ Traj.Run (always 0, 1) ] in
  let from_build = raised (fun () -> ignore (Traj.of_blocks ~g ~start:1 bad)) in
  Alcotest.(check bool) "of_blocks raises" true (Option.is_some from_build);
  Alcotest.(check (option string))
    "same Invalid_argument" from_build
    (raised (fun () -> ignore (Traj.same_ports obs ~start:1 bad one)))

(* ------------------------------------------------------- cache accounting *)

let counter name =
  match List.assoc_opt name (Rv_obs.Counter.all ()) with Some v -> v | None -> 0

let with_obs f =
  Rv_obs.Obs.set_enabled true;
  Rv_obs.Obs.reset ();
  Rv_obs.Counter.reset ();
  Fun.protect
    ~finally:(fun () ->
      Rv_obs.Obs.set_enabled false;
      Rv_obs.Obs.reset ();
      Rv_obs.Counter.reset ();
      Rv_obs.Histogram.reset ())
    f

let test_cache_hit_miss_accounting () =
  with_obs (fun () ->
      let g = Rv_graph.Ring.oriented 6 in
      let builds = ref 0 in
      let build ~label:_ ~start =
        incr builds;
        Traj.of_schedule ~g ~start ~rounds:1 (scripted [ Ex.Move 0 ])
      in
      let ctx = Traj_cache.create ~build () in
      let t1 = Traj_cache.get ctx ~label:1 ~start:0 in
      let t1' = Traj_cache.get ctx ~label:1 ~start:0 in
      Alcotest.(check bool) "memoized (same trajectory)" true (t1 == t1');
      ignore (Traj_cache.get ctx ~label:2 ~start:0);
      ignore (Traj_cache.get ctx ~label:1 ~start:3);
      Alcotest.(check int) "builds" 3 !builds;
      Alcotest.(check int) "misses" 3 (counter "traj.cache_misses");
      Alcotest.(check int) "hits" 1 (counter "traj.cache_hits");
      (* A fresh generation invalidates the domain's table. *)
      let ctx2 = Traj_cache.create ~build () in
      ignore (Traj_cache.get ctx2 ~label:1 ~start:0);
      Alcotest.(check int) "fresh generation rebuilds" 4 !builds)

let test_cache_eviction_bounded () =
  with_obs (fun () ->
      let g = Rv_graph.Ring.oriented 6 in
      let builds = ref 0 in
      let build ~label:_ ~start =
        incr builds;
        Traj.of_schedule ~g ~start ~rounds:1 (scripted [ Ex.Move 0 ])
      in
      (* Every insert (2 retained rounds) overflows a 1-round budget, so
         each new key rotates the generations: after A then B, the table
         holding A is gone and A must be rebuilt — while B, still in the
         previous generation, survives via its second chance. *)
      let ctx = Traj_cache.create ~budget_rounds:1 ~build () in
      ignore (Traj_cache.get ctx ~label:1 ~start:0);
      ignore (Traj_cache.get ctx ~label:2 ~start:0);
      ignore (Traj_cache.get ctx ~label:1 ~start:0);
      Alcotest.(check int) "evicted key rebuilt" 3 !builds;
      ignore (Traj_cache.get ctx ~label:1 ~start:0);
      Alcotest.(check int) "promoted key hits" 3 !builds;
      Alcotest.(check int) "hit counted" 1 (counter "traj.cache_hits"))

(* ------------------------------------- workload fast path == reference *)

let test_workload_fast_matches_reference () =
  let space = 16 in
  List.iter
    (fun (fam, g, explorer) ->
      let e = (explorer ~start:0).Ex.bound in
      let pairs = W.sample_pairs ~space ~max_pairs:6 in
      let delays = W.ring_delays ~e in
      List.iter
        (fun (mname, model) ->
          List.iter
            (fun algorithm ->
              let run dispatch =
                let sink = Rv_engine.Sink.memory () in
                let result =
                  W.worst_for ~model ~dispatch ~g ~algorithm ~space ~explorer
                    ~pairs ~positions:`Fixed_first ~delays ~sink ()
                in
                (result, Rv_engine.Sink.records sink)
              in
              let rf, recf = run `Fast in
              let rr, recr = run `Reference in
              let id = Printf.sprintf "%s %s %s" fam mname (R.name algorithm) in
              Alcotest.(check bool) (id ^ " same worst") true (rf = rr);
              Alcotest.(check bool) (id ^ " same records") true (recf = recr))
            [ R.Cheap; R.Fast; R.Fwr 2 ])
        [ ("waiting", Sim.Waiting); ("parachute", Sim.Parachute) ])
    (families ())

let () =
  Alcotest.run "rv_traj"
    [
      ( "traj",
        [
          tc "of_blocks == of_schedule (3 families)" test_of_blocks_matches_of_schedule;
          tc "meet == Sim.run (3 families x 3 algorithms, random draws)"
            test_meet_matches_sim_run;
          tc "meet_intervals == Sim.run parachute (same sweep + placement)"
            test_meet_intervals_matches_sim_run;
          tc "crossing at the delay boundary" test_crossing_at_delay_boundary;
          tc "meeting at the wake boundary" test_meeting_at_wake_boundary;
          tc "image == of_blocks from phi(0) (4 families x 3 algorithms)"
            test_image_matches_of_blocks;
          tc "same_ports == build and compare (certifying + ham torus)"
            test_same_ports_agrees_with_builds;
          tc "same_ports on crafted walks (last round, pause, invalid port)"
            test_same_ports_crafted;
        ] );
      ( "cache",
        [
          tc "hit/miss accounting" test_cache_hit_miss_accounting;
          tc "bounded eviction with second chance" test_cache_eviction_bounded;
        ] );
      ( "workload",
        [
          tc "fast path == reference (3 families x 3 algorithms)"
            test_workload_fast_matches_reference;
        ] );
    ]

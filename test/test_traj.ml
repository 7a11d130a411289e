(* Tests for the trajectory fast path (rv_sim Traj / Traj_cache): the
   materialized-walk meeting scan must reproduce the reference simulator
   outcome field-for-field across graph families, algorithms, random
   delay offsets and random block lists; the block constructor must
   agree with the generic one round by round while storing only its run
   rounds; crossings must be caught exactly at the wake boundary; and the
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

let qtest ?(count = 300) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* Same three families as test_engine: oriented ring, grid (map DFS, so
   the walk genuinely depends on the start), torus (Euler walk) — plus
   the non-returning DFS, whose walk is shorter than its bound E, so it
   waits inside its Run blocks. *)
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

let dfs_nr () =
  let grid = Rv_graph.Grid.make ~rows:3 ~cols:4 in
  ("grid:3x4 dfs-nr", grid, fun ~start -> Rv_explore.Map_dfs.non_returning grid ~start)

let delay_tolerant = [ R.Cheap; R.Fast; R.Fwr 2 ]
let simultaneous = [ R.Cheap_simultaneous; R.Fast_simultaneous; R.Fwr_simultaneous 2 ]

(* Family x algorithm cases, families outermost. *)
let cases families algorithms =
  List.concat_map
    (fun (fam, g, explorer) ->
      List.map (fun algorithm -> (fam, g, explorer, algorithm)) algorithms)
    families

let classic () = cases (families ()) delay_tolerant

(* The simultaneous-start variants, whose schedules open with a pause, on
   every family; and every algorithm on the non-returning DFS, whose walk
   is shorter than its bound E, so it waits inside its Run blocks. *)
let widened () =
  cases (families () @ [ dfs_nr () ]) simultaneous
  @ cases [ dfs_nr () ] delay_tolerant

let blocks_of ~algorithm ~space ~explorer ~label ~start =
  List.map
    (function
      | Sched.Pause k -> Traj.Still k
      | Sched.Explore e -> Traj.Run (e.Ex.fresh (), e.Ex.bound))
    (R.schedule algorithm ~space ~label ~explorer:(explorer ~start))

let traj_of ~g ~algorithm ~space ~explorer ~label ~start =
  Traj.of_blocks ~g ~start (blocks_of ~algorithm ~space ~explorer ~label ~start)

(* The first round where two walks differ in position, port or cost,
   over rounds 0..rounds+1 (one past the schedule, where both rest). *)
let first_difference (want : Traj.t) (got : Traj.t) =
  let rec go r =
    if r > want.Traj.rounds + 1 then None
    else if
      Traj.pos_at want r <> Traj.pos_at got r
      || Traj.port_at want r <> Traj.port_at got r
      || Traj.cost_at want r <> Traj.cost_at got r
    then Some r
    else go (r + 1)
  in
  go 0

let same_walk (want : Traj.t) (got : Traj.t) =
  want.Traj.start = got.Traj.start
  && want.Traj.rounds = got.Traj.rounds
  && first_difference want got = None

let check_same_traj id (want : Traj.t) (got : Traj.t) =
  Alcotest.(check int) (id ^ " start") want.Traj.start got.Traj.start;
  Alcotest.(check int) (id ^ " rounds") want.Traj.rounds got.Traj.rounds;
  Alcotest.(check (option int)) (id ^ " first differing round") None (first_difference want got)

(* ------------------------------------------------- constructor agreement *)

let test_of_blocks_matches_of_schedule cases () =
  List.iter
    (fun (fam, g, explorer, algorithm) ->
      let space = 16 in
      List.iter
        (fun label ->
          List.iter
            (fun start ->
              let sched = R.schedule algorithm ~space ~label ~explorer:(explorer ~start) in
              let generic =
                Traj.of_schedule ~g ~start ~rounds:(Sched.duration sched)
                  (Sched.to_instance sched)
              in
              let blocks = traj_of ~g ~algorithm ~space ~explorer ~label ~start in
              let id = Printf.sprintf "%s %s l=%d s=%d" fam (R.name algorithm) label start in
              check_same_traj id generic blocks)
            [ 0; 3; Pg.n g - 1 ])
        [ 1; 5; 16 ])
    (cases ())

(* Pauses cost one segment, not their length: Cheap with label 4096 on
   ring:128 runs (2l+2)E = 1,040,638 rounds, but only its two 127-round
   explorations are stored.  A dense walk would allocate 3 words per
   round, ~3.1 M words. *)
let test_cheap_stores_run_rounds () =
  let n = 128 and label = 4096 in
  let g = Rv_graph.Ring.oriented n in
  let explorer ~start:_ = Rv_explore.Ring_walk.clockwise ~n in
  let obs = Traj.observations g in
  let blocks = blocks_of ~algorithm:R.Cheap ~space:label ~explorer ~label ~start:0 in
  (* Small arrays land in the minor heap, large ones straight in the
     major heap (major words that were not promoted). *)
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  let t = Sys.opaque_identity (Traj.of_blocks ~obs ~g ~start:0 blocks) in
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  let words = minor1 -. minor0 +. (major1 -. promoted1) -. (major0 -. promoted0) in
  let e = n - 1 in
  Alcotest.(check int) "duration" (((2 * label) + 2) * e) t.Traj.rounds;
  Alcotest.(check int) "run rounds stored" (2 * e) (Array.length t.Traj.pos);
  Alcotest.(check int) "stored: run rounds plus three segments" ((2 * e) + 3) (Traj.stored t);
  if words > float_of_int (5 * 2 * e) then
    Alcotest.failf "of_blocks allocated %.0f words for %d run rounds" words (2 * e);
  Alcotest.(check int) "waits through the pause" (n - 1) (Traj.pos_at t (t.Traj.rounds / 2));
  Alcotest.(check int) "final node" (2 * e mod n) (Traj.pos_at t (t.Traj.rounds + 5));
  Alcotest.(check int) "cost" (2 * e) (Traj.cost_at t t.Traj.rounds)

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

(* Twelve seeded draws per case: distinct labels, distinct starts, and
   delays that span the interesting boundaries — simultaneous,
   off-by-one, around E, and far beyond — with a nonzero common prefix
   in roughly half the draws to exercise the normalization. *)
let draw_cells ~seed ~model cases check =
  let rng = Rng.create ~seed in
  let space = 16 in
  List.iter
    (fun (fam, g, explorer, algorithm) ->
      let n = Pg.n g in
      let e = (explorer ~start:0).Ex.bound in
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
        let d () = Rng.choose rng [| 0; 1; 2; e - 1; e; e + 1; (2 * e) + 2 |] in
        let shift = if Rng.bool rng then d () else 0 in
        let da = d () + shift and db = d () + shift in
        let id =
          Printf.sprintf "%s %s%s draw%d (l %d/%d, s %d/%d, d %d/%d)" fam (R.name algorithm)
            model draw la lb pa pb da db
        in
        check ~id ~g ~explorer ~algorithm ~space ~la ~lb ~pa ~pb ~da ~db
      done)
    cases

let test_meet_matches_sim_run cases () =
  draw_cells ~seed:0x7247 ~model:"" (cases ()) check_meet_matches_run

let test_meet_intervals_matches_sim_run cases () =
  draw_cells ~seed:0x9e11 ~model:" parachute" (cases ()) check_meet_intervals_matches_run

let test_placement_meeting () =
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

(* ---------------------------------------- property: random block lists *)

(* A block list as data, so every consumer steps fresh instances.  A Run
   replays its script — a negative entry waits, any other moves through
   that port modulo the degree — and waits once the script runs out. *)
type spec = S of int | R of int list * int

let script_instance script =
  let rest = ref script in
  fun (o : Ex.observation) ->
    match !rest with
    | [] -> Ex.Wait
    | c :: tl ->
        rest := tl;
        if c < 0 then Ex.Wait else Ex.Move (c mod o.Ex.degree)

let blocks_of_spec =
  List.map (function S k -> Traj.Still k | R (script, k) -> Traj.Run (script_instance script, k))

(* The same rounds as one stepper, for of_schedule and Sim.run: one
   instance per round ([None] waits), then waits forever. *)
let stepper_of_spec spec =
  let rounds =
    ref
      (List.concat_map
         (function
           | S k -> List.init k (fun _ -> None)
           | R (script, k) ->
               let inst = script_instance script in
               List.init k (fun _ -> Some inst))
         spec)
  in
  fun (o : Ex.observation) ->
    match !rounds with
    | [] -> Ex.Wait
    | x :: rest -> (
        rounds := rest;
        match x with None -> Ex.Wait | Some inst -> inst o)

let spec_rounds = List.fold_left (fun acc -> function S k | R (_, k) -> acc + k) 0

(* Every block boundary, in the agent's own rounds. *)
let boundaries spec =
  List.rev
    (snd
       (List.fold_left
          (fun (r, acc) b ->
            let r = r + (match b with S k | R (_, k) -> k) in
            (r, r :: acc))
          (0, [ 0 ]) spec))

type block_case = {
  graph : string;
  spec_a : spec list;
  spec_b : spec list;
  start_b : int;
  delay_a : int;
  delay_b : int;
  cap : int option;
}

let block_graphs =
  [
    ("ring:6", Rv_graph.Ring.oriented 6);
    ("grid:2x3", Rv_graph.Grid.make ~rows:2 ~cols:3);
    ("path:5", Rv_graph.Tree.path 5);
  ]

let show_spec spec =
  String.concat "; "
    (List.map
       (function
         | S k -> Printf.sprintf "Still %d" k
         | R (script, k) ->
             Printf.sprintf "Run ([%s], %d)"
               (String.concat "," (List.map string_of_int script))
               k)
       spec)

let show_block_case c =
  Printf.sprintf "%s a=[%s] b=[%s] start_b=%d delays %d/%d cap %s" c.graph (show_spec c.spec_a)
    (show_spec c.spec_b) c.start_b c.delay_a c.delay_b
    (match c.cap with None -> "-" | Some m -> string_of_int m)

(* Zero-length and adjacent Still blocks, leading and trailing pauses,
   Run blocks whose scripts wait or run out, and delays on both sides of
   every pair of block boundaries. *)
let block_case_gen =
  let open QCheck.Gen in
  let block =
    frequency
      [
        (2, map (fun k -> S k) (oneofl [ 0; 0; 1; 2; 3; 7 ]));
        ( 3,
          int_range 0 5 >>= fun k ->
          list_size (int_range 0 (k + 1)) (int_range (-1) 2) >>= fun script ->
          return (R (script, k)) );
      ]
  in
  let spec = list_size (int_range 0 6) block in
  oneofl block_graphs >>= fun (graph, g) ->
  spec >>= fun spec_a ->
  spec >>= fun spec_b ->
  int_range 1 (Pg.n g - 1) >>= fun start_b ->
  let offsets =
    List.concat_map
      (fun x -> List.concat_map (fun y -> [ x - y - 1; x - y; x - y + 1 ]) (boundaries spec_b))
      (boundaries spec_a)
  in
  oneofl (0 :: 1 :: 2 :: offsets) >>= fun gap ->
  int_range 0 2 >>= fun shift ->
  (* A positive gap delays agent b by it, a negative one agent a. *)
  let delay_a = shift + max 0 (-gap) and delay_b = shift + max 0 gap in
  opt (int_range 0 12) >>= fun cap ->
  return { graph; spec_a; spec_b; start_b; delay_a; delay_b; cap }

let same_outcome (out : Sim.outcome) (m : Traj.meeting) =
  out.Sim.met = m.Traj.met
  && out.Sim.meeting_round = m.Traj.meeting_round
  && out.Sim.meeting_node = m.Traj.meeting_node
  && out.Sim.cost = m.Traj.cost
  && out.Sim.cost_a = m.Traj.cost_a
  && out.Sim.cost_b = m.Traj.cost_b
  && out.Sim.rounds_run = m.Traj.rounds_run
  && out.Sim.crossings = m.Traj.crossings

let prop_random_blocks =
  qtest "random block lists: of_blocks == of_schedule, meet == Sim.run (both models)"
    (QCheck.make ~print:show_block_case block_case_gen)
    (fun c ->
      let g = List.assoc c.graph block_graphs in
      let build spec start = Traj.of_blocks ~g ~start (blocks_of_spec spec) in
      let generic spec start =
        Traj.of_schedule ~g ~start ~rounds:(spec_rounds spec) (stepper_of_spec spec)
      in
      let ta = build c.spec_a 0 and tb = build c.spec_b c.start_b in
      let max_rounds =
        match c.cap with
        | Some m -> m
        | None -> max (ta.Traj.rounds + c.delay_a) (tb.Traj.rounds + c.delay_b) + 1
      in
      let agrees model scan =
        let out =
          Sim.run ~model ~g ~max_rounds
            { Sim.start = 0; delay = c.delay_a; step = stepper_of_spec c.spec_a }
            { Sim.start = c.start_b; delay = c.delay_b; step = stepper_of_spec c.spec_b }
        in
        same_outcome out
          (scan ~a:ta ~b:tb ~delay_a:c.delay_a ~delay_b:c.delay_b ~max_rounds)
      in
      same_walk (generic c.spec_a 0) ta
      && same_walk (generic c.spec_b c.start_b) tb
      && agrees Sim.Waiting Traj.meet
      && agrees Sim.Parachute Traj.meet_intervals)

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
        delay_tolerant)
    (Sym_families.reduced ())

(* ------------------------------------------------ certification verdict *)

module Spec = Rv_experiments.Spec

(* The per-label meaning of a certified family: for every label, the walk
   from every phi(0), built with of_blocks, is the image of the walk
   from 0 (of_blocks lays out the segment table from the block lengths
   alone, so equal walks are equal records). *)
let images_hold ~g ~algorithm ~space ~explorer =
  let autos = Sym.automorphisms (Sym.detect g) in
  List.for_all
    (fun label ->
      let t0 = traj_of ~g ~algorithm ~space ~explorer ~label ~start:0 in
      Array.for_all
        (fun phi ->
          traj_of ~g ~algorithm ~space ~explorer ~label ~start:phi.(0) = Traj.image phi t0)
        autos)
    (List.init space (fun l -> l + 1))

(* The verdict [certify] reaches from single executions equals the
   per-label oracle on every graph of Sym_families.spec_graphs, with
   every explorer form that applies to it, under Cheap, Fast, FWR(2) and
   cheap-sim. *)
let test_certify_matches_images () =
  let space = 4 in
  let verdicts = ref [] in
  List.iter
    (fun gs ->
      let g = gs.Spec.g in
      let s = Sym.detect g in
      List.iter
        (fun espec ->
          match Spec.parse_explorer gs espec with
          | Error _ -> ()
          | Ok explorer ->
              let verdict = W.certify ~g s ~explorer in
              verdicts := ((gs.Spec.spec, espec), verdict) :: !verdicts;
              List.iter
                (fun algorithm ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s %s %s" gs.Spec.spec espec (R.name algorithm))
                    (images_hold ~g ~algorithm ~space ~explorer)
                    verdict)
                [ R.Cheap; R.Fast; R.Fwr 2; R.Cheap_simultaneous ])
        Sym_families.explorer_specs)
    (Sym_families.spec_graphs ());
  (* Both outcomes occur: the Hamiltonian-cycle walks on the torus and
     the 4-cube follow node identities and fall back. *)
  let verdict key = List.assoc key !verdicts in
  Alcotest.(check bool) "ring:16 ring certifies" true (verdict ("ring:16", "ring"));
  Alcotest.(check bool) "torus:3x4 euler certifies" true (verdict ("torus:3x4", "euler"));
  Alcotest.(check bool) "torus:3x4 ham falls back" false (verdict ("torus:3x4", "ham"));
  Alcotest.(check bool) "hypercube:4 ham falls back" false (verdict ("hypercube:4", "ham"))

(* [certify] checks first executions only, so it rests on the explorer
   contract: a family whose later executions depend on the start it was
   built for certifies, and yet its walks are no images.
   Bounds.verify_repeated rejects it (test_explore). *)
let test_certify_rests_on_contract () =
  let n = 8 in
  let g = Rv_graph.Ring.oriented n in
  let explorer = Sym_families.contrary ~n in
  Alcotest.(check bool) "first executions certify" true
    (W.certify ~g (Sym.detect g) ~explorer);
  Alcotest.(check bool) "walks are no images" false
    (images_hold ~g ~algorithm:R.Fast ~space:4 ~explorer)

(* A family that meets the contract, but whose executions tell odd
   nodes from even ones when they directly follow another execution:
   each one walks clockwise, except that one beginning at an odd node
   with an entry port walks counter-clockwise.  It tracks the agent's
   position on the oriented ring, as the map-based families do. *)
let parity ~n ~start =
  let at = ref start in
  Ex.make ~name:"parity" ~bound:(n - 1) ~fresh:(fun () ->
      let port = ref (-1) in
      fun (o : Ex.observation) ->
        if !port < 0 then port := if o.Ex.entry <> None && !at mod 2 = 1 then 1 else 0;
        at := if !port = 0 then (!at + 1) mod n else (!at + n - 1) mod n;
        Ex.move !port)

(* [certify] checks every first observation an execution can begin
   with, whatever the algorithm: Fast runs executions back to back, and
   the parity family's walks are then no images, while Cheap separates
   its two executions by a pause, where they are. *)
let test_certify_checks_entry_ports () =
  let n = 8 in
  let g = Rv_graph.Ring.oriented n in
  let explorer = parity ~n in
  Alcotest.(check bool) "meets the contract" true
    (Rv_explore.Bounds.verify_repeated g ~make:explorer ~executions:3 = Ok ());
  Alcotest.(check bool) "rejected" false (W.certify ~g (Sym.detect g) ~explorer);
  Alcotest.(check bool) "Fast: no images" false
    (images_hold ~g ~algorithm:R.Fast ~space:4 ~explorer);
  Alcotest.(check bool) "Cheap: images" true
    (images_hold ~g ~algorithm:R.Cheap ~space:4 ~explorer)

let always p (_ : Ex.observation) = Ex.Move p

let test_execution_helpers_crafted () =
  let g = Rv_graph.Ring.oriented 6 in
  let obs = Traj.observations g in
  let takes id expect ?(entry = None) step ports =
    Alcotest.(check bool) id expect (Traj.takes_ports obs ~node:1 ~entry step ports)
  in
  let clockwise = Traj.execution_ports obs ~node:0 ~entry:None (always 0) ~rounds:4 in
  Alcotest.(check (array int)) "records the ports" [| 0; 0; 0; 0 |] clockwise;
  Alcotest.(check (array int)) "as of_blocks stores them" clockwise
    (Traj.of_blocks ~g ~start:0 [ Traj.Run (always 0, 4) ]).Traj.port;
  takes "same execution" true (always 0) clockwise;
  takes "turns back in the final round only" false
    (scripted [ Ex.Move 0; Ex.Move 0; Ex.Move 0; Ex.Move 1 ])
    clockwise;
  takes "waits in the final round only" false
    (scripted [ Ex.Move 0; Ex.Move 0; Ex.Move 0; Ex.Wait ])
    clockwise;
  takes "no rounds" true (always 5) [||];
  (* The stepper sees the given entry on its first step, and what its own
     moves and waits leave after that. *)
  let seen = ref [] in
  let logging actions =
    let next = scripted actions in
    fun (o : Ex.observation) ->
      seen := o.Ex.entry :: !seen;
      next o
  in
  let ports =
    Traj.execution_ports obs ~node:2 ~entry:(Some 1)
      (logging [ Ex.Move 0; Ex.Wait; Ex.Move 1 ])
      ~rounds:3
  in
  Alcotest.(check (array int)) "ports" [| 0; -1; 1 |] ports;
  Alcotest.(check (list (option int))) "entries seen" [ Some 1; Some 1; None ] (List.rev !seen);
  seen := [];
  takes ~entry:(Some 0) "takes, from an entry" true (logging [ Ex.Move 0; Ex.Wait ]) [| 0; -1 |];
  Alcotest.(check (list (option int))) "takes sees the entry" [ Some 0; Some 1 ] (List.rev !seen);
  (* An execution directly after another one sees the entry port its
     last move left, in of_blocks as in the helpers. *)
  let turn_back (o : Ex.observation) =
    match o.Ex.entry with None -> Ex.Move 0 | Some q -> Ex.Move q
  in
  let adjacent = Traj.of_blocks ~g ~start:0 [ Traj.Run (always 0, 1); Traj.Run (turn_back, 3) ] in
  Alcotest.(check (array int)) "adjacent execution in of_blocks"
    (Array.sub adjacent.Traj.port 1 3)
    (Traj.execution_ports obs ~node:1 ~entry:(Some 1) turn_back ~rounds:3);
  takes ~entry:(Some 1) "entry port changes the walk" false turn_back clockwise;
  (* An invalid port raises exactly what of_blocks raises; so does an
     entry port the node does not have. *)
  let raised f = match f () with _ -> None | exception Invalid_argument m -> Some m in
  let from_build = raised (fun () -> ignore (Traj.of_blocks ~g ~start:1 [ Traj.Run (always 5, 1) ])) in
  Alcotest.(check bool) "of_blocks raises" true (Option.is_some from_build);
  Alcotest.(check (option string))
    "execution_ports: same Invalid_argument" from_build
    (raised (fun () ->
         ignore (Traj.execution_ports obs ~node:1 ~entry:None (always 5) ~rounds:1)));
  Alcotest.(check (option string))
    "takes_ports: same Invalid_argument" from_build
    (raised (fun () ->
         ignore (Traj.takes_ports obs ~node:1 ~entry:None (always 5) [| 0 |])));
  Alcotest.(check bool) "entry port out of range" true
    (Option.is_some
       (raised (fun () ->
            ignore (Traj.takes_ports obs ~node:1 ~entry:(Some 2) (always 0) [| 0 |]))))

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

(* An entry is charged what it stores, not its duration: a walk whose
   1000-round pause is one segment stores 4 rounds and 3 segments, so
   two of them fit a 100-round budget that either duration exceeds and
   neither insert rotates the generations. *)
let test_cache_charges_stored () =
  with_obs (fun () ->
      let g = Rv_graph.Ring.oriented 6 in
      let builds = ref 0 in
      let build ~label:_ ~start =
        incr builds;
        Traj.of_blocks ~g ~start
          [ Traj.Run (scripted [ Ex.Move 0; Ex.Move 0 ], 2); Traj.Still 1000;
            Traj.Run (scripted [ Ex.Move 1; Ex.Move 1 ], 2) ]
      in
      let ctx = Traj_cache.create ~budget_rounds:100 ~build () in
      let t = Traj_cache.get ctx ~label:1 ~start:0 in
      Alcotest.(check int) "duration over budget" 1004 t.Traj.rounds;
      Alcotest.(check int) "stored" 7 (Traj.stored t);
      ignore (Traj_cache.get ctx ~label:2 ~start:0);
      ignore (Traj_cache.get ctx ~label:1 ~start:0);
      ignore (Traj_cache.get ctx ~label:2 ~start:0);
      Alcotest.(check int) "both retained" 2 !builds;
      Alcotest.(check int) "hits" 2 (counter "traj.cache_hits"))

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
          tc "of_blocks == of_schedule (3 families)" (test_of_blocks_matches_of_schedule classic);
          tc "meet == Sim.run (3 families x 3 algorithms, random draws)"
            (test_meet_matches_sim_run classic);
          tc "meet_intervals == Sim.run parachute (same sweep + placement)" (fun () ->
              test_meet_intervals_matches_sim_run classic ();
              test_placement_meeting ());
          tc "crossing at the delay boundary" test_crossing_at_delay_boundary;
          tc "meeting at the wake boundary" test_meeting_at_wake_boundary;
          tc "image == of_blocks from phi(0) (4 families x 3 algorithms)"
            test_image_matches_of_blocks;
          tc "certify == per-label images (7 graphs x every explorer form)"
            test_certify_matches_images;
          tc "certify rests on the explorer contract" test_certify_rests_on_contract;
          tc "certify checks executions begun with an entry port"
            test_certify_checks_entry_ports;
          tc "execution helpers on crafted walks (last round, entry, invalid port)"
            test_execution_helpers_crafted;
          tc "of_blocks == of_schedule (-sim algorithms, dfs-nr)"
            (test_of_blocks_matches_of_schedule widened);
          tc "meet == Sim.run (-sim algorithms, dfs-nr)" (test_meet_matches_sim_run widened);
          tc "meet_intervals == Sim.run parachute (-sim algorithms, dfs-nr)"
            (test_meet_intervals_matches_sim_run widened);
          prop_random_blocks;
          tc "Cheap stores its run rounds, not its duration" test_cheap_stores_run_rounds;
        ] );
      ( "cache",
        [
          tc "hit/miss accounting" test_cache_hit_miss_accounting;
          tc "bounded eviction with second chance" test_cache_eviction_bounded;
          tc "charges stored rounds, not duration" test_cache_charges_stored;
        ] );
      ( "workload",
        [
          tc "fast path == reference (3 families x 3 algorithms)"
            test_workload_fast_matches_reference;
        ] );
    ]

(* Tests for rv_explore: the EXPLORE contract ("from any start, every node
   is visited within the declared bound E, padded to exactly E rounds")
   verified for every procedure, on many graphs, including across
   consecutive executions with tracked positions. *)

module Pg = Rv_graph.Port_graph
module Ex = Rv_explore.Explorer
module Bounds = Rv_explore.Bounds
module Rng = Rv_util.Rng

let qtest ?(count = 60) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let tc name f = Alcotest.test_case name `Quick f

let expect_ok name = function
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: %s" name e

(* Graph pools for the different knowledge models. *)
let any_graph seed =
  let rng = Rng.create ~seed in
  match seed mod 8 with
  | 0 -> Rv_graph.Ring.oriented (3 + (seed mod 12))
  | 1 -> Rv_graph.Ring.scrambled rng (3 + (seed mod 12))
  | 2 -> Rv_graph.Tree.random rng (2 + (seed mod 12))
  | 3 -> Rv_graph.Grid.make ~rows:(2 + (seed mod 3)) ~cols:(2 + (seed mod 3))
  | 4 -> Rv_graph.Hypercube.make ~dim:(2 + (seed mod 2))
  | 5 -> Rv_graph.Complete_graph.make (3 + (seed mod 5))
  | 6 -> Rv_graph.Random_graph.connected rng ~n:(4 + (seed mod 10)) ~extra_edges:(seed mod 5)
  | _ -> Rv_graph.Special.lollipop ~clique:3 ~tail:(1 + (seed mod 4))

let graph_arb = QCheck.(map any_graph (int_bound 10_000))

(* --------------------------------------------------------------- Explorer *)

let test_make_invalid () =
  match Ex.make ~name:"x" ~bound:(-1) ~fresh:(fun () _ -> Ex.Wait) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative bound accepted"

let test_walk_factory_pads () =
  let g = Rv_graph.Ring.oriented 5 in
  (* Walk of 2 ports, bound 6: the remaining 4 rounds must be waits. *)
  let t = Ex.of_walk_factory ~name:"w" ~bound:6 (fun () -> [ 0; 0 ]) in
  let inst = t.Ex.fresh () in
  let obs pos = { Ex.degree = Pg.degree g pos; entry = None } in
  Alcotest.(check bool) "move 1" true (inst (obs 0) = Ex.Move 0);
  Alcotest.(check bool) "move 2" true (inst (obs 1) = Ex.Move 0);
  for _ = 1 to 4 do
    Alcotest.(check bool) "padding wait" true (inst (obs 2) = Ex.Wait)
  done

let test_walk_factory_too_long () =
  let t = Ex.of_walk_factory ~name:"w" ~bound:1 (fun () -> [ 0; 0 ]) in
  let inst = t.Ex.fresh () in
  match inst { Ex.degree = 2; entry = None } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "over-long walk accepted"

let test_idle_fails_contract () =
  let g = Rv_graph.Ring.oriented 4 in
  match Bounds.rounds_to_cover g ~start:0 (Ex.idle ~bound:10) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "idle cannot cover"

let test_invalid_port_detected () =
  let g = Rv_graph.Ring.oriented 4 in
  let bad = Ex.make ~name:"bad" ~bound:3 ~fresh:(fun () _ -> Ex.Move 7) in
  match Bounds.rounds_to_cover g ~start:0 bad with
  | Error msg ->
      Alcotest.(check bool) "mentions invalid port" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "invalid port not caught"

(* -------------------------------------------------------------- Ring_walk *)

let prop_ring_walk =
  qtest "clockwise walk covers the ring in exactly n-1 rounds"
    QCheck.(int_range 3 40)
    (fun n ->
      let g = Rv_graph.Ring.oriented n in
      let ok = ref true in
      for start = 0 to n - 1 do
        match Bounds.rounds_to_cover g ~start (Rv_explore.Ring_walk.clockwise ~n) with
        | Ok r -> if r <> n - 1 then ok := false
        | Error _ -> ok := false
      done;
      !ok)

let test_rename () =
  let t = Rv_explore.Ring_walk.clockwise ~n:5 in
  let r = Ex.rename "my-walk" t in
  Alcotest.(check string) "renamed" "my-walk" r.Ex.name;
  Alcotest.(check int) "bound kept" t.Ex.bound r.Ex.bound

let test_counterclockwise () =
  let g = Rv_graph.Ring.oriented 9 in
  expect_ok "ccw"
    (Bounds.verify g ~make:(fun ~start ->
         ignore start;
         Rv_explore.Ring_walk.counterclockwise ~n:9))

(* ---------------------------------------------------------------- Map_dfs *)

let prop_map_dfs_contract =
  qtest "map DFS (returning) verifies on all families, repeatedly" graph_arb (fun g ->
      Bounds.verify_repeated g
        ~make:(fun ~start -> Rv_explore.Map_dfs.returning g ~start)
        ~executions:3
      = Ok ())

let prop_map_dfs_nr_contract =
  qtest "map DFS (non-returning) verifies repeatedly despite moving position" graph_arb
    (fun g ->
      Bounds.verify_repeated g
        ~make:(fun ~start -> Rv_explore.Map_dfs.non_returning g ~start)
        ~executions:4
      = Ok ())

let test_map_dfs_bounds () =
  Alcotest.(check int) "returning bound" 22 (Rv_explore.Map_dfs.bound_returning ~n:12);
  Alcotest.(check int) "non-returning bound" 21 (Rv_explore.Map_dfs.bound_non_returning ~n:12);
  Alcotest.(check int) "n=2 non-returning" 1 (Rv_explore.Map_dfs.bound_non_returning ~n:2)

let test_map_dfs_tight_on_path () =
  (* From the end of a path, the non-returning DFS needs exactly n-1 moves;
     from the middle it needs more, but never beyond 2n-3. *)
  let g = Rv_graph.Tree.path 8 in
  (match Bounds.rounds_to_cover g ~start:0 (Rv_explore.Map_dfs.non_returning g ~start:0) with
  | Ok r -> Alcotest.(check int) "from end" 7 r
  | Error e -> Alcotest.fail e);
  match Bounds.worst g ~make:(fun ~start -> Rv_explore.Map_dfs.non_returning g ~start) with
  | Ok w -> Alcotest.(check bool) "worst within 2n-3" true (w <= 13)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------ Unmarked_dfs *)

let prop_unmarked_contract =
  qtest ~count:30 "unmarked try-each-DFS verifies on all families" graph_arb (fun g ->
      Bounds.verify g ~make:(fun ~start ->
          ignore start;
          Rv_explore.Unmarked_dfs.make g)
      = Ok ())

let prop_unmarked_measured_within_safe =
  qtest ~count:30 "unmarked DFS measured worst within the safe bound" graph_arb (fun g ->
      let n = Pg.n g in
      match Bounds.worst g ~make:(fun ~start -> ignore start; Rv_explore.Unmarked_dfs.make g) with
      | Ok w -> w <= Rv_explore.Unmarked_dfs.safe_bound ~n
      | Error _ -> false)

let test_unmarked_repeated () =
  let g = Rv_graph.Grid.make ~rows:3 ~cols:3 in
  expect_ok "repeated"
    (Bounds.verify_repeated g
       ~make:(fun ~start -> ignore start; Rv_explore.Unmarked_dfs.make g)
       ~executions:2)

(* -------------------------------------------------------------- Euler walk *)

let eulerian_graph seed =
  let rng = Rng.create ~seed in
  let k = 1 + (seed mod 3) in
  let n = (2 * k) + 3 + (seed mod 6) in
  Rv_graph.Random_graph.regular_even rng ~n ~half_degree:k

let prop_euler_closed =
  qtest ~count:40 "closed Euler walk verifies repeatedly"
    QCheck.(map eulerian_graph (int_bound 10_000))
    (fun g ->
      Bounds.verify_repeated g
        ~make:(fun ~start -> Rv_explore.Euler_walk.closed g ~start)
        ~executions:3
      = Ok ())

let prop_euler_truncated =
  qtest ~count:40 "truncated Euler walk verifies repeatedly"
    QCheck.(map eulerian_graph (int_bound 10_000))
    (fun g ->
      Bounds.verify_repeated g
        ~make:(fun ~start -> Rv_explore.Euler_walk.truncated g ~start)
        ~executions:3
      = Ok ())

let test_euler_rejects_non_eulerian () =
  let g = Rv_graph.Grid.make ~rows:2 ~cols:3 in
  match Rv_explore.Euler_walk.closed g ~start:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-Eulerian accepted"

(* ---------------------------------------------------------------- Ham walk *)

let test_ham_families () =
  let cases =
    [
      ( Rv_graph.Torus.make ~rows:3 ~cols:4,
        Rv_graph.Torus.hamiltonian_cycle ~rows:3 ~cols:4 );
      (Rv_graph.Hypercube.make ~dim:3, Rv_graph.Hypercube.hamiltonian_cycle ~dim:3);
      (Rv_graph.Complete_graph.make 7, Rv_graph.Complete_graph.hamiltonian_cycle 7);
      (Rv_graph.Ring.oriented 9, Rv_graph.Ring.clockwise_cycle 9);
    ]
  in
  List.iter
    (fun (g, cycle) ->
      expect_ok "ham repeated"
        (Bounds.verify_repeated g
           ~make:(fun ~start -> Rv_explore.Ham_walk.make g ~cycle ~start)
           ~executions:4);
      Alcotest.(check int) "E = n-1" (Pg.n g - 1)
        (Rv_explore.Ham_walk.make g ~cycle ~start:0).Ex.bound)
    cases

let test_ham_rejects_bad_cert () =
  let g = Rv_graph.Ring.oriented 5 in
  match Rv_explore.Ham_walk.make g ~cycle:[ 0; 2; 4; 1; 3 ] ~start:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad certificate accepted"

(* --------------------------------------------------------------------- UXS *)

let small_corpus = lazy (Rv_explore.Uxs.default_corpus ~size_bound:10)

let small_uxs =
  lazy
    (match
       Rv_explore.Uxs.construct ~corpus:(Lazy.force small_corpus) ~size_bound:10 ~seed:5
     with
    | Ok u -> u
    | Error e -> failwith e)

let test_uxs_deterministic () =
  let build () =
    Rv_explore.Uxs.construct ~corpus:(Lazy.force small_corpus) ~size_bound:10 ~seed:5
  in
  match (build (), build ()) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "same terms" true (a.Rv_explore.Uxs.terms = b.Rv_explore.Uxs.terms)
  | _ -> Alcotest.fail "construction failed"

let test_uxs_covers_corpus () =
  let u = Lazy.force small_uxs in
  List.iter
    (fun g -> Alcotest.(check bool) "covers" true (Rv_explore.Uxs.covers u g))
    (Lazy.force small_corpus)

let test_uxs_walk_explorer () =
  let u = Lazy.force small_uxs in
  List.iter
    (fun g ->
      expect_ok "uxs explorer"
        (Bounds.verify g ~make:(fun ~start -> ignore start; Rv_explore.Uxs_walk.make u)))
    [ Rv_graph.Ring.oriented 8; Rv_graph.Tree.star 9; Rv_graph.Grid.make ~rows:3 ~cols:3 ]

let test_uxs_rounds_consistent () =
  let u = Lazy.force small_uxs in
  let g = Rv_graph.Ring.oriented 8 in
  (match Rv_explore.Uxs.rounds_to_cover u g ~start:3 with
  | Some r -> Alcotest.(check bool) "positive" true (r > 0 && r <= Array.length u.Rv_explore.Uxs.terms)
  | None -> Alcotest.fail "should cover");
  let nodes = Rv_explore.Uxs.walk u g ~start:3 in
  Alcotest.(check int) "walk length" (Array.length u.Rv_explore.Uxs.terms + 1)
    (List.length nodes)

let test_uxs_corpus_size_check () =
  match
    Rv_explore.Uxs.construct
      ~corpus:[ Rv_graph.Ring.oriented 12 ]
      ~size_bound:10 ~seed:0
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized corpus graph accepted"

(* ------------------------------------------------------------ Pinned walks *)

(* Steps [executions] consecutive executions of [t] through [g] from
   [start] and returns the exit ports of each. *)
let execution_ports g (t : Ex.t) ~start ~executions =
  let pos = ref start and entry = ref None in
  let run () =
    let inst = t.Ex.fresh () in
    let ports = ref [] in
    for _ = 1 to t.Ex.bound do
      match inst { Ex.degree = Pg.degree g !pos; entry = !entry } with
      | Ex.Wait -> entry := None
      | Ex.Move p ->
          let v, q = Pg.follow g !pos p in
          pos := v;
          entry := Some q;
          ports := p :: !ports
    done;
    List.rev !ports
  in
  let rec go k =
    if k = 0 then []
    else
      let ports = run () in
      ports :: go (k - 1)
  in
  go executions

let spec_family graph explorer =
  let module Spec = Rv_experiments.Spec in
  match Spec.parse_graph graph with
  | Error e -> failwith e
  | Ok gs -> (
      match Spec.parse_explorer gs explorer with
      | Ok make -> (graph, gs.Spec.g, make)
      | Error e -> failwith e)

let pinned_families () =
  let torus = Rv_graph.Torus.make ~rows:3 ~cols:4 in
  List.map
    (fun graph -> spec_family graph "ham")
    [ "torus:3x4"; "torus:4x5"; "hypercube:3"; "complete:5" ]
  @ List.concat_map
      (fun graph -> [ spec_family graph "dfs"; spec_family graph "dfs-nr" ])
      [ "grid:3x4"; "petersen"; "tree:10"; "path:6"; "star:5"; "scrambled-ring:8" ]
  @ [
      ("torus:3x4", torus, Rv_explore.Euler_walk.closed torus);
      ("torus:3x4", torus, Rv_explore.Euler_walk.truncated torus);
    ]

(* The ports of the first three executions from every start, one line per
   start: "start: ports | ports | ports". *)
let render_walks () =
  let buf = Buffer.create 8192 in
  List.iter
    (fun (graph, g, make) ->
      let e = make ~start:0 in
      Printf.bprintf buf "%s %s E=%d\n" e.Ex.name graph e.Ex.bound;
      for start = 0 to Pg.n g - 1 do
        let execs = execution_ports g (make ~start) ~start ~executions:3 in
        Printf.bprintf buf "  %d: %s\n" start
          (String.concat " | "
             (List.map (fun ports -> String.concat " " (List.map string_of_int ports)) execs))
      done)
    (pinned_families ());
  Buffer.contents buf

let test_walks_golden () =
  Alcotest.(check string) "every execution's ports are pinned"
    (In_channel.with_open_bin
       (Test_data.path "golden/explore_walks.golden")
       In_channel.input_all)
    (render_walks ())

(* The Hamiltonian certificate of [any_graph seed], where its family has
   one. *)
let ham_certificate seed g =
  match seed mod 8 with
  | 0 -> Some (Rv_graph.Ring.clockwise_cycle (Pg.n g))
  | 4 -> Some (Rv_graph.Hypercube.hamiltonian_cycle ~dim:(2 + (seed mod 2)))
  | 5 -> Some (Rv_graph.Complete_graph.hamiltonian_cycle (Pg.n g))
  | _ -> None

(* The list walks of Rv_graph are the reference: execution k replays the
   reference walk from the node where execution k - 1 ended. *)
let prop_matches_list_walks =
  qtest "map explorers replay the list reference walks"
    QCheck.(triple (int_bound 10_000) (int_bound 1_000) (int_range 1 4))
    (fun (seed, s, executions) ->
      let g = any_graph seed in
      let start = s mod Pg.n g in
      let agrees make reference =
        let rec expected from k =
          if k = 0 then []
          else
            let walk = reference ~start:from in
            walk :: expected (Rv_graph.Walk.final g ~start:from walk) (k - 1)
        in
        List.equal (List.equal Int.equal)
          (execution_ports g (make ~start) ~start ~executions)
          (expected start executions)
      in
      agrees (Rv_explore.Map_dfs.returning g) (Rv_graph.Walk.dfs g)
      && agrees (Rv_explore.Map_dfs.non_returning g) (Rv_graph.Walk.dfs_no_return g)
      && ((not (Rv_graph.Euler.is_eulerian g))
         || agrees (Rv_explore.Euler_walk.closed g) (Rv_graph.Euler.circuit g)
            && agrees (Rv_explore.Euler_walk.truncated g) (Rv_graph.Euler.circuit_no_return g))
      &&
      match ham_certificate seed g with
      | None -> true
      | Some cycle ->
          agrees (Rv_explore.Ham_walk.make g ~cycle) (fun ~start ->
              Rv_graph.Walk.from_cycle g ~cycle ~start))

(* -------------------------------------------------------------- Allocation *)

(* The observations [rounds] steps of [inst] from [start] see, recorded
   so that an identical run can be stepped without building any. *)
let observations_of g (inst : Ex.instance) ~rounds ~start =
  let pos = ref start and entry = ref None in
  Array.init rounds (fun _ ->
      let obs = { Ex.degree = Pg.degree g !pos; entry = !entry } in
      (match inst obs with
      | Ex.Wait -> entry := None
      | Ex.Move p ->
          let v, q = Pg.follow g !pos p in
          pos := v;
          entry := Some q);
      obs)

(* The same for one execution of [t]. *)
let recorded_observations g (t : Ex.t) ~start =
  observations_of g (t.Ex.fresh ()) ~rounds:t.Ex.bound ~start

(* The first step of an execution fetches its walk; every later round
   must not touch the minor heap. *)
let test_steps_allocate_nothing () =
  let torus = Rv_graph.Torus.make ~rows:3 ~cols:4 in
  let cycle = Rv_graph.Torus.hamiltonian_cycle ~rows:3 ~cols:4 in
  let grid = Rv_graph.Grid.make ~rows:3 ~cols:4 in
  let ring = Rv_graph.Ring.oriented 8 in
  let uxs = Lazy.force small_uxs in
  let cases =
    [
      ("ham", torus, Rv_explore.Ham_walk.make torus ~cycle);
      ("dfs", grid, Rv_explore.Map_dfs.returning grid);
      ("euler", torus, Rv_explore.Euler_walk.closed torus);
      ("ring", ring, fun ~start -> ignore start; Rv_explore.Ring_walk.clockwise ~n:8);
      ("uxs", ring, fun ~start -> ignore start; Rv_explore.Uxs_walk.make uxs);
    ]
  in
  List.iter
    (fun (name, g, make) ->
      let obs = recorded_observations g (make ~start:1) ~start:1 in
      let inst = (make ~start:1).Ex.fresh () in
      ignore (inst obs.(0));
      let before = Gc.minor_words () in
      for r = 1 to Array.length obs - 1 do
        ignore (Sys.opaque_identity (inst obs.(r)))
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check (float 0.)) (name ^ ": minor words after the first step") 0. words)
    cases

(* The schedule stepper keeps its step and rounds left in mutable state:
   a block's first round may start an explorer instance, but no later
   round of a pause, an exploration or the rest after the schedule
   allocates. *)
let test_schedule_steps_allocate_nothing () =
  let module Sched = Rv_core.Schedule in
  let ring = Rv_graph.Ring.oriented 8 in
  let e = Rv_explore.Ring_walk.clockwise ~n:8 in
  let sched = Sched.[ Pause 40; Explore e; Pause 30; Explore e; Pause 0 ] in
  let rounds = Sched.duration sched + 20 in
  let obs = observations_of ring (Sched.to_instance sched) ~rounds ~start:1 in
  (* The first round of each block: one past the rounds before it. *)
  let opens =
    snd
      (List.fold_left
         (fun (at, acc) step ->
           let k = match step with Sched.Pause k -> k | Sched.Explore e -> e.Ex.bound in
           (at + k, (at + 1) :: acc))
         (0, []) sched)
  in
  let inst = Sched.to_instance sched in
  let words = ref 0 in
  Array.iteri
    (fun i o ->
      if List.mem (i + 1) opens then ignore (inst o)
      else begin
        let before = Gc.minor_words () in
        ignore (Sys.opaque_identity (inst o));
        words := !words + int_of_float (Gc.minor_words () -. before)
      end)
    obs;
  Alcotest.(check int) "minor words after each block's first round" 0 !words

(* ---------------------------------------------------------------- Contract *)

(* Every execution acts as the first execution of a family built for the
   node where it begins (Explorer's contract, checked by
   verify_repeated), for every explorer form that applies to the
   vertex-transitive graphs a symmetry-reduced sweep certifies on. *)
let test_contract_every_form () =
  let module Spec = Rv_experiments.Spec in
  let checked = ref 0 in
  List.iter
    (fun gs ->
      List.iter
        (fun espec ->
          match Spec.parse_explorer gs espec with
          | Error _ -> ()
          | Ok make ->
              incr checked;
              expect_ok
                (Printf.sprintf "%s %s" gs.Spec.spec espec)
                (Bounds.verify_repeated gs.Spec.g ~make ~executions:3))
        Sym_families.explorer_specs)
    (Sym_families.spec_graphs ());
  Alcotest.(check int) "pairings checked" 50 !checked

(* A family whose later executions depend on the start it was built for:
   each execution covers the ring, but from start 1 the second one walks
   counter-clockwise, where a family built for the node it begins at
   walks clockwise. *)
let test_contract_rejects_start_dependence () =
  let n = 8 in
  let g = Rv_graph.Ring.oriented n in
  let make = Sym_families.contrary ~n in
  expect_ok "each execution covers" (Bounds.verify g ~make);
  match Bounds.verify_repeated g ~make ~executions:2 with
  | Ok () -> Alcotest.fail "start-dependent family accepted"
  | Error msg ->
      Alcotest.(check string) "names the execution and its departure"
        "contrary (execution 2): begun at node 0 with entry port 1, it takes port 1 in \
         round 1, where a first execution of the family for start 0 takes port 0"
        msg

(* ------------------------------------------------------------------ Bounds *)

let prop_measured_le_declared =
  qtest "measured cover time never exceeds the declared bound" graph_arb (fun g ->
      match Bounds.worst g ~make:(fun ~start -> Rv_explore.Map_dfs.returning g ~start) with
      | Ok w -> w <= Rv_explore.Map_dfs.bound_returning ~n:(Pg.n g)
      | Error _ -> false)

let () =
  Alcotest.run "rv_explore"
    [
      ( "explorer",
        [
          tc "make invalid" test_make_invalid;
          tc "walk factory pads" test_walk_factory_pads;
          tc "walk too long" test_walk_factory_too_long;
          tc "idle fails contract" test_idle_fails_contract;
          tc "invalid port detected" test_invalid_port_detected;
        ] );
      ("ring_walk",
        [ prop_ring_walk; tc "counterclockwise" test_counterclockwise; tc "rename" test_rename ]);
      ( "map_dfs",
        [
          prop_map_dfs_contract;
          prop_map_dfs_nr_contract;
          tc "bound formulas" test_map_dfs_bounds;
          tc "tight on path" test_map_dfs_tight_on_path;
        ] );
      ( "unmarked_dfs",
        [
          prop_unmarked_contract;
          prop_unmarked_measured_within_safe;
          tc "repeated executions" test_unmarked_repeated;
        ] );
      ( "euler_walk",
        [
          prop_euler_closed;
          prop_euler_truncated;
          tc "rejects non-eulerian" test_euler_rejects_non_eulerian;
        ] );
      ( "ham_walk",
        [ tc "families" test_ham_families; tc "rejects bad certificate" test_ham_rejects_bad_cert ] );
      ( "uxs",
        [
          tc "deterministic" test_uxs_deterministic;
          tc "covers corpus" test_uxs_covers_corpus;
          tc "as explorer" test_uxs_walk_explorer;
          tc "rounds consistent" test_uxs_rounds_consistent;
          tc "corpus size check" test_uxs_corpus_size_check;
        ] );
      ( "contract",
        [
          tc "every explorer form on vertex-transitive graphs" test_contract_every_form;
          tc "start-dependent family rejected" test_contract_rejects_start_dependence;
        ] );
      ("bounds", [ prop_measured_le_declared ]);
      ("golden", [ tc "explore walks" test_walks_golden; prop_matches_list_walks ]);
      ( "allocation",
        [
          tc "steps allocate nothing" test_steps_allocate_nothing;
          tc "schedule steps allocate nothing" test_schedule_steps_allocate_nothing;
        ] );
    ]

(* Tests for rv_graph: the anonymous port-labeled graph substrate, its
   builder families, and the map-side algorithms (walks, Eulerian
   circuits, Hamiltonian certificates). *)

module Pg = Rv_graph.Port_graph
module Rng = Rv_util.Rng

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let tc name f = Alcotest.test_case name `Quick f

let check = Alcotest.(check int)

(* A generator of assorted valid graphs across families, driven by a seed. *)
let family_graph seed =
  let rng = Rng.create ~seed in
  match seed mod 10 with
  | 0 -> Rv_graph.Ring.oriented (3 + (seed mod 13))
  | 1 -> Rv_graph.Ring.scrambled rng (3 + (seed mod 13))
  | 2 -> Rv_graph.Tree.random rng (2 + (seed mod 14))
  | 3 -> Rv_graph.Grid.make ~rows:(2 + (seed mod 3)) ~cols:(2 + (seed mod 4))
  | 4 -> Rv_graph.Torus.make ~rows:(3 + (seed mod 2)) ~cols:(3 + (seed mod 3))
  | 5 -> Rv_graph.Hypercube.make ~dim:(2 + (seed mod 3))
  | 6 -> Rv_graph.Complete_graph.make (3 + (seed mod 6))
  | 7 -> Rv_graph.Random_graph.connected rng ~n:(4 + (seed mod 12)) ~extra_edges:(seed mod 7)
  | 8 -> Rv_graph.Special.lollipop ~clique:(3 + (seed mod 3)) ~tail:(1 + (seed mod 4))
  | _ -> Rv_graph.Tree.caterpillar ~spine:(2 + (seed mod 4)) ~legs:(seed mod 3)

let graph_arb = QCheck.(map family_graph (int_bound 10_000))

(* ----------------------------------------------------------- Port_graph *)

let test_create_valid () =
  let g = Pg.create ~n:2 [| [| (1, 0) |]; [| (0, 0) |] |] in
  check "n" 2 (Pg.n g);
  check "edges" 1 (Pg.num_edges g);
  check "degree" 1 (Pg.degree g 0);
  Alcotest.(check (pair int int)) "follow" (1, 0) (Pg.follow g 0 0)

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let test_create_invalid () =
  expect_invalid "asymmetric" (fun () ->
      Pg.create ~n:3 [| [| (1, 0) |]; [| (2, 0) |]; [| (1, 0) |] |]);
  expect_invalid "self loop" (fun () -> Pg.create ~n:1 [| [| (0, 0) |] |]);
  expect_invalid "parallel" (fun () ->
      Pg.create ~n:2 [| [| (1, 0); (1, 1) |]; [| (0, 0); (0, 1) |] |]);
  expect_invalid "disconnected" (fun () ->
      Pg.create ~n:4 [| [| (1, 0) |]; [| (0, 0) |]; [| (3, 0) |]; [| (2, 0) |] |]);
  expect_invalid "out of range" (fun () -> Pg.create ~n:2 [| [| (5, 0) |]; [| (0, 0) |] |])

let test_follow_invalid () =
  let g = Rv_graph.Ring.oriented 4 in
  expect_invalid "bad port" (fun () -> Pg.follow g 0 2);
  expect_invalid "bad node" (fun () -> Pg.follow g 9 0)

let prop_builders_valid =
  qtest "every builder output passes check" graph_arb (fun g ->
      match Pg.check g with Ok () -> true | Error _ -> false)

let prop_edges_handshake =
  qtest "sum of degrees = 2 * edges" graph_arb (fun g ->
      let sum = ref 0 in
      for v = 0 to Pg.n g - 1 do
        sum := !sum + Pg.degree g v
      done;
      !sum = 2 * Pg.num_edges g && List.length (Pg.edges g) = Pg.num_edges g)

let prop_relabel_ports =
  qtest "relabel_ports preserves degrees, validity, connectivity"
    QCheck.(pair graph_arb (int_bound 1000))
    (fun (g, seed) ->
      let rng = Rng.create ~seed in
      let g' = Pg.relabel_ports rng g in
      Pg.n g' = Pg.n g
      && Pg.num_edges g' = Pg.num_edges g
      && Pg.is_connected g'
      && List.for_all
           (fun v -> Pg.degree g' v = Pg.degree g v)
           (List.init (Pg.n g) (fun i -> i)))

(* --------------------------------------------------------------- Builders *)

let test_ring_structure () =
  let g = Rv_graph.Ring.oriented 5 in
  for i = 0 to 4 do
    Alcotest.(check (pair int int))
      (Printf.sprintf "port 0 at %d" i)
      ((i + 1) mod 5, 1)
      (Pg.follow g i 0);
    Alcotest.(check (pair int int))
      (Printf.sprintf "port 1 at %d" i)
      ((i + 4) mod 5, 0)
      (Pg.follow g i 1)
  done

let test_ring_too_small () = expect_invalid "n=2" (fun () -> Rv_graph.Ring.oriented 2)

let test_tree_families () =
  let p = Rv_graph.Tree.path 6 in
  check "path edges" 5 (Pg.num_edges p);
  check "path end degree" 1 (Pg.degree p 0);
  check "path mid degree" 2 (Pg.degree p 3);
  let s = Rv_graph.Tree.star 7 in
  check "star center degree" 6 (Pg.degree s 0);
  check "star leaf degree" 1 (Pg.degree s 3);
  let b = Rv_graph.Tree.full_binary ~depth:3 in
  check "binary nodes" 15 (Pg.n b);
  check "binary root degree" 2 (Pg.degree b 0);
  check "binary internal degree" 3 (Pg.degree b 1);
  check "binary leaf degree" 1 (Pg.degree b 14);
  let c = Rv_graph.Tree.caterpillar ~spine:3 ~legs:2 in
  check "caterpillar nodes" 9 (Pg.n c);
  check "caterpillar edges" 8 (Pg.num_edges c)

let prop_random_tree =
  qtest "random tree has n-1 edges and is connected"
    QCheck.(pair (int_range 2 40) (int_bound 1000))
    (fun (n, seed) ->
      let g = Rv_graph.Tree.random (Rng.create ~seed) n in
      Pg.n g = n && Pg.num_edges g = n - 1 && Pg.is_connected g)

let test_grid () =
  let g = Rv_graph.Grid.make ~rows:3 ~cols:4 in
  check "nodes" 12 (Pg.n g);
  check "edges" 17 (Pg.num_edges g);
  check "corner" 2 (Pg.degree g 0);
  check "edge node" 3 (Pg.degree g 1);
  check "inner" 4 (Pg.degree g (Rv_graph.Grid.node ~cols:4 1 1))

let test_torus () =
  let g = Rv_graph.Torus.make ~rows:3 ~cols:4 in
  check "nodes" 12 (Pg.n g);
  check "edges" 24 (Pg.num_edges g);
  for v = 0 to 11 do
    check (Printf.sprintf "degree %d" v) 4 (Pg.degree g v)
  done;
  Alcotest.(check bool) "hamiltonian cert" true
    (Rv_graph.Hamilton.check g (Rv_graph.Torus.hamiltonian_cycle ~rows:3 ~cols:4))

let prop_torus_hamiltonian =
  qtest "torus hamiltonian certificates valid"
    QCheck.(pair (int_range 3 6) (int_range 3 6))
    (fun (rows, cols) ->
      Rv_graph.Hamilton.check
        (Rv_graph.Torus.make ~rows ~cols)
        (Rv_graph.Torus.hamiltonian_cycle ~rows ~cols))

let test_hypercube () =
  let g = Rv_graph.Hypercube.make ~dim:4 in
  check "nodes" 16 (Pg.n g);
  check "edges" 32 (Pg.num_edges g);
  for v = 0 to 15 do
    check "degree" 4 (Pg.degree g v)
  done;
  Alcotest.(check (pair int int)) "port semantics" (5, 2) (Pg.follow g 1 2);
  Alcotest.(check bool) "gray cycle" true
    (Rv_graph.Hamilton.check g (Rv_graph.Hypercube.hamiltonian_cycle ~dim:4))

let test_complete () =
  let g = Rv_graph.Complete_graph.make 6 in
  check "edges" 15 (Pg.num_edges g);
  for v = 0 to 5 do
    check "degree" 5 (Pg.degree g v)
  done;
  Alcotest.(check bool) "ham" true
    (Rv_graph.Hamilton.check g (Rv_graph.Complete_graph.hamiltonian_cycle 6))

let prop_random_connected =
  qtest "random connected graph respects edge budget"
    QCheck.(triple (int_range 2 30) (int_range 0 20) (int_bound 1000))
    (fun (n, extra, seed) ->
      let g = Rv_graph.Random_graph.connected (Rng.create ~seed) ~n ~extra_edges:extra in
      let max_edges = n * (n - 1) / 2 in
      Pg.is_connected g
      && Pg.num_edges g >= n - 1
      && Pg.num_edges g <= min max_edges (n - 1 + extra))

let prop_regular_even =
  qtest "regular_even is 2k-regular and Eulerian"
    QCheck.(pair (int_range 1 3) (int_bound 1000))
    (fun (k, seed) ->
      let n = (2 * k) + 3 + (seed mod 8) in
      let g = Rv_graph.Random_graph.regular_even (Rng.create ~seed) ~n ~half_degree:k in
      Rv_graph.Euler.is_eulerian g
      && List.for_all (fun v -> Pg.degree g v = 2 * k) (List.init n (fun i -> i)))

let test_specials () =
  let l = Rv_graph.Special.lollipop ~clique:4 ~tail:3 in
  check "lollipop nodes" 7 (Pg.n l);
  check "lollipop clique node degree" 4 (Pg.degree l 0);
  check "lollipop tail end degree" 1 (Pg.degree l 6);
  let b = Rv_graph.Special.barbell ~clique:3 ~bridge:2 in
  check "barbell nodes" 8 (Pg.n b);
  Alcotest.(check bool) "barbell connected" true (Pg.is_connected b);
  let w = Rv_graph.Special.wheel 6 in
  check "wheel hub degree" 5 (Pg.degree w 0);
  check "wheel rim degree" 3 (Pg.degree w 1);
  let p = Rv_graph.Special.petersen () in
  check "petersen nodes" 10 (Pg.n p);
  check "petersen edges" 15 (Pg.num_edges p);
  for v = 0 to 9 do
    check "petersen 3-regular" 3 (Pg.degree p v)
  done;
  let t = Rv_graph.Special.theta ~len:2 in
  check "theta nodes" 8 (Pg.n t);
  check "theta hub degree" 3 (Pg.degree t 0)

let test_petersen_not_hamiltonian () =
  Alcotest.(check bool) "no hamiltonian cycle" true
    (Rv_graph.Hamilton.find_brute_force (Rv_graph.Special.petersen ()) = None)

let test_wheel_hamiltonian () =
  match Rv_graph.Hamilton.find_brute_force (Rv_graph.Special.wheel 7) with
  | Some cycle ->
      Alcotest.(check bool) "found cycle is valid" true
        (Rv_graph.Hamilton.check (Rv_graph.Special.wheel 7) cycle)
  | None -> Alcotest.fail "wheel must be Hamiltonian"

(* ------------------------------------------------------------------ Walk *)

let prop_dfs_covers_and_returns =
  qtest "Walk.dfs covers all nodes, returns to start, length 2(n-1)" graph_arb (fun g ->
      let n = Pg.n g in
      let ok = ref true in
      for start = 0 to n - 1 do
        let w = Rv_graph.Walk.dfs g ~start in
        if List.length w <> 2 * (n - 1) then ok := false;
        if not (Rv_graph.Walk.covers_all g ~start w) then ok := false;
        if Rv_graph.Walk.final g ~start w <> start then ok := false
      done;
      !ok)

let prop_dfs_no_return =
  qtest "Walk.dfs_no_return covers within 2n-3" graph_arb (fun g ->
      let n = Pg.n g in
      let ok = ref true in
      for start = 0 to n - 1 do
        let w = Rv_graph.Walk.dfs_no_return g ~start in
        if List.length w > max 1 ((2 * n) - 3) then ok := false;
        if not (Rv_graph.Walk.covers_all g ~start w) then ok := false
      done;
      !ok)

let test_walk_apply_invalid () =
  let g = Rv_graph.Ring.oriented 4 in
  expect_invalid "bad port in walk" (fun () ->
      ignore (Rv_graph.Walk.apply g ~start:0 [ 0; 5 ]))

let test_from_cycle () =
  let g = Rv_graph.Ring.oriented 6 in
  let w = Rv_graph.Walk.from_cycle g ~cycle:(Rv_graph.Ring.clockwise_cycle 6) ~start:2 in
  check "length" 5 (List.length w);
  Alcotest.(check bool) "covers" true (Rv_graph.Walk.covers_all g ~start:2 w);
  check "final" 1 (Rv_graph.Walk.final g ~start:2 w)

let test_from_cycle_invalid () =
  let g = Rv_graph.Ring.oriented 6 in
  expect_invalid "wrong length" (fun () ->
      ignore (Rv_graph.Walk.from_cycle g ~cycle:[ 0; 1; 2 ] ~start:0));
  expect_invalid "not a permutation" (fun () ->
      ignore (Rv_graph.Walk.from_cycle g ~cycle:[ 0; 1; 2; 3; 4; 4 ] ~start:0));
  expect_invalid "missing edge" (fun () ->
      ignore (Rv_graph.Walk.from_cycle g ~cycle:[ 0; 2; 1; 3; 4; 5 ] ~start:0))

(* ----------------------------------------------------------------- Euler *)

let test_eulerian_families () =
  Alcotest.(check bool) "ring" true (Rv_graph.Euler.is_eulerian (Rv_graph.Ring.oriented 7));
  Alcotest.(check bool) "torus" true
    (Rv_graph.Euler.is_eulerian (Rv_graph.Torus.make ~rows:3 ~cols:3));
  Alcotest.(check bool) "grid is not" false
    (Rv_graph.Euler.is_eulerian (Rv_graph.Grid.make ~rows:3 ~cols:3));
  Alcotest.(check bool) "path is not" false
    (Rv_graph.Euler.is_eulerian (Rv_graph.Tree.path 4));
  Alcotest.(check bool) "hypercube dim 4 (even degrees)" true
    (Rv_graph.Euler.is_eulerian (Rv_graph.Hypercube.make ~dim:4))

let each_edge_once g ~start ports =
  let used = Hashtbl.create 16 in
  let ok = ref true in
  let pos = ref start in
  List.iter
    (fun p ->
      let v, q = Pg.follow g !pos p in
      let a = min (!pos, p) (v, q) and b = max (!pos, p) (v, q) in
      if Hashtbl.mem used (a, b) then ok := false;
      Hashtbl.add used (a, b) ();
      pos := v)
    ports;
  !ok && Hashtbl.length used = Pg.num_edges g

let prop_euler_circuit =
  qtest "Hierholzer circuit covers every edge exactly once and closes"
    QCheck.(pair (int_range 1 3) (int_bound 500))
    (fun (k, seed) ->
      let n = (2 * k) + 3 + (seed mod 6) in
      let g = Rv_graph.Random_graph.regular_even (Rng.create ~seed) ~n ~half_degree:k in
      let ok = ref true in
      for start = 0 to n - 1 do
        let c = Rv_graph.Euler.circuit g ~start in
        if List.length c <> Pg.num_edges g then ok := false;
        if not (each_edge_once g ~start c) then ok := false;
        if Rv_graph.Walk.final g ~start c <> start then ok := false
      done;
      !ok)

let prop_euler_truncated =
  qtest "truncated circuit covers all nodes within e-1"
    QCheck.(pair (int_range 1 3) (int_bound 500))
    (fun (k, seed) ->
      let n = (2 * k) + 3 + (seed mod 6) in
      let g = Rv_graph.Random_graph.regular_even (Rng.create ~seed) ~n ~half_degree:k in
      let ok = ref true in
      for start = 0 to n - 1 do
        let c = Rv_graph.Euler.circuit_no_return g ~start in
        if List.length c > Pg.num_edges g - 1 then ok := false;
        if not (Rv_graph.Walk.covers_all g ~start c) then ok := false
      done;
      !ok)

let test_euler_non_eulerian () =
  expect_invalid "circuit on grid" (fun () ->
      ignore (Rv_graph.Euler.circuit (Rv_graph.Grid.make ~rows:2 ~cols:3) ~start:0))

(* -------------------------------------------------------------- Hamilton *)

let test_hamilton_check () =
  let g = Rv_graph.Ring.oriented 5 in
  Alcotest.(check bool) "valid" true (Rv_graph.Hamilton.check g [ 0; 1; 2; 3; 4 ]);
  Alcotest.(check bool) "rotated valid" true (Rv_graph.Hamilton.check g [ 2; 3; 4; 0; 1 ]);
  Alcotest.(check bool) "reversed valid" true (Rv_graph.Hamilton.check g [ 4; 3; 2; 1; 0 ]);
  Alcotest.(check bool) "short" false (Rv_graph.Hamilton.check g [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "repeat" false (Rv_graph.Hamilton.check g [ 0; 1; 2; 3; 3 ]);
  Alcotest.(check bool) "non-adjacent" false (Rv_graph.Hamilton.check g [ 0; 2; 1; 3; 4 ])

let test_hamilton_brute_force () =
  (match Rv_graph.Hamilton.find_brute_force (Rv_graph.Ring.oriented 6) with
  | Some c ->
      Alcotest.(check bool) "ring cycle valid" true
        (Rv_graph.Hamilton.check (Rv_graph.Ring.oriented 6) c)
  | None -> Alcotest.fail "ring is Hamiltonian");
  Alcotest.(check bool) "path has none" true
    (Rv_graph.Hamilton.find_brute_force (Rv_graph.Tree.path 5) = None);
  expect_invalid "size limit" (fun () ->
      ignore (Rv_graph.Hamilton.find_brute_force (Rv_graph.Ring.oriented 20)))

(* ------------------------------------------------------------------- Dot *)

let test_dot () =
  let g = Rv_graph.Ring.oriented 4 in
  let dot = Rv_graph.Dot.to_dot ~name:"r4" g in
  Alcotest.(check bool) "graph header" true
    (String.length dot > 10 && String.sub dot 0 8 = "graph r4");
  let lines = String.split_on_char '\n' dot in
  let edge_lines =
    List.filter (fun l -> String.length l > 3 && String.contains l '-') lines
  in
  check "edge lines" 4 (List.length edge_lines)

let () =
  Alcotest.run "rv_graph"
    [
      ( "port_graph",
        [
          tc "create valid" test_create_valid;
          tc "create invalid" test_create_invalid;
          tc "follow invalid" test_follow_invalid;
          prop_builders_valid;
          prop_edges_handshake;
          prop_relabel_ports;
        ] );
      ( "builders",
        [
          tc "oriented ring structure" test_ring_structure;
          tc "ring too small" test_ring_too_small;
          tc "tree families" test_tree_families;
          prop_random_tree;
          tc "grid" test_grid;
          tc "torus" test_torus;
          prop_torus_hamiltonian;
          tc "hypercube" test_hypercube;
          tc "complete" test_complete;
          prop_random_connected;
          prop_regular_even;
          tc "specials" test_specials;
          tc "petersen not hamiltonian" test_petersen_not_hamiltonian;
          tc "wheel hamiltonian" test_wheel_hamiltonian;
        ] );
      ( "walk",
        [
          prop_dfs_covers_and_returns;
          prop_dfs_no_return;
          tc "apply invalid" test_walk_apply_invalid;
          tc "from_cycle" test_from_cycle;
          tc "from_cycle invalid" test_from_cycle_invalid;
        ] );
      ( "euler",
        [
          tc "eulerian families" test_eulerian_families;
          prop_euler_circuit;
          prop_euler_truncated;
          tc "non-eulerian rejected" test_euler_non_eulerian;
        ] );
      ( "hamilton",
        [ tc "check" test_hamilton_check; tc "brute force" test_hamilton_brute_force ] );
      ("dot", [ tc "render" test_dot ]);
    ]

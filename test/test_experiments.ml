(* Tests for rv_experiments: workload machinery, the spec parsers used by
   the CLI, and small-parameter runs of every experiment table (checking
   each produces well-formed, failure-free rows and the expected shapes). *)

module W = Rv_experiments.Workload
module Spec = Rv_experiments.Spec
module Table = Rv_util.Table
module R = Rv_core.Rendezvous

let tc name f = Alcotest.test_case name `Quick f

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* --------------------------------------------------------------- Workload *)

let test_all_ones_label () =
  Alcotest.(check int) "L=4" 3 (W.all_ones_label ~space:4);
  Alcotest.(check int) "L=7" 7 (W.all_ones_label ~space:7);
  Alcotest.(check int) "L=8" 7 (W.all_ones_label ~space:8);
  Alcotest.(check int) "L=100" 63 (W.all_ones_label ~space:100);
  Alcotest.(check int) "L=1" 1 (W.all_ones_label ~space:1)

let prop_sample_pairs =
  qtest "sample_pairs yields valid distinct ordered pairs"
    QCheck.(pair (int_range 2 300) (int_range 1 20))
    (fun (space, max_pairs) ->
      let pairs = W.sample_pairs ~space ~max_pairs in
      List.length pairs > 0
      && List.length pairs <= max (max_pairs) (space * (space - 1) / 2)
      && List.for_all (fun (a, b) -> 1 <= a && a < b && b <= space) pairs
      && List.length (List.sort_uniq (Rv_util.Ord.pair Int.compare Int.compare) pairs)
         = List.length pairs)

let test_sample_pairs_exhaustive_when_small () =
  Alcotest.(check int) "L=4 all pairs" 6 (List.length (W.sample_pairs ~space:4 ~max_pairs:10))

let test_ring_delays () =
  let ds = W.ring_delays ~e:10 in
  Alcotest.(check bool) "all have a zero side" true
    (List.for_all (fun (a, b) -> min a b = 0) ds);
  Alcotest.(check bool) "includes (0, E+1)" true (List.mem (0, 11) ds);
  Alcotest.(check bool) "includes (E+1, 0)" true (List.mem (11, 0) ds)

let test_worst_for_agrees_with_bounds () =
  let n = 10 in
  let g = Rv_graph.Ring.oriented n in
  let explorer ~start = ignore start; Rv_explore.Ring_walk.clockwise ~n in
  match
    W.worst_for ~g ~algorithm:R.Cheap_simultaneous ~space:4 ~explorer
      ~pairs:[ (3, 4) ] ~positions:`Fixed_first ~delays:[ (0, 0) ] ()
  with
  | Error e -> Alcotest.fail e
  | Ok (t, c) ->
      (* CheapSim (3,4): agent 3 waits 2E then explores; worst gap puts the
         meeting at the very end of its exploration: time 3E, cost E. *)
      Alcotest.(check int) "worst time 3E" (3 * (n - 1)) t;
      Alcotest.(check int) "worst cost E" (n - 1) c

let test_worst_for_flags_failure () =
  let n = 6 in
  let g = Rv_graph.Ring.oriented n in
  (* A simultaneous-only algorithm driven with a delay beyond its schedule
     can fail to meet; use two idle schedules via a degenerate explorer to
     force the error path instead. *)
  let explorer ~start = ignore start; Rv_explore.Explorer.idle ~bound:(n - 1) in
  match
    W.worst_for ~g ~algorithm:R.Fast ~space:4 ~explorer ~pairs:[ (1, 2) ]
      ~positions:`Fixed_first ~delays:[ (0, 0) ] ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "idle explorer cannot rendezvous"

(* Both agents must run an EXPLORE with the same bound E.  An explorer
   whose bound depends on its start breaks that for some position pairs,
   and every dispatch path must refuse it the same way. *)
let test_worst_for_mixed_bounds () =
  let n = 6 in
  let g = Rv_graph.Ring.oriented n in
  let explorer ~start =
    if start = 0 then Rv_explore.Ring_walk.clockwise ~n
    else Rv_explore.Map_dfs.returning g ~start
  in
  List.iter
    (fun dispatch ->
      Alcotest.check_raises "different bounds refused"
        (Invalid_argument
           "Rendezvous.run: the two agents' explorers declare different bounds E")
        (fun () ->
          ignore
            (W.worst_for ~dispatch ~g ~algorithm:R.Fast ~space:4 ~explorer
               ~pairs:[ (1, 2) ] ~positions:`All_pairs ~delays:[ (0, 0) ] ())))
    [ `Fast; `Reference; `Auto ]

(* `Auto is a size rule: the trajectory kernel from 128 configurations
   up, the reference simulator below.  It reads only the inputs, so the
   kernel split in Stats is a function of them alone. *)
let kernel_split ?dispatch ~g ~algorithm ~space ~explorer ~pairs ~positions ~delays () =
  W.Stats.reset ();
  let r =
    W.worst_for ?dispatch ~g ~algorithm ~space ~explorer ~pairs ~positions ~delays ()
  in
  let s = W.Stats.snapshot () in
  (r, s.W.Stats.simulated, s.W.Stats.reference_cells, s.W.Stats.traj_cells)

let test_auto_size_rule () =
  let n = 16 in
  let g = Rv_graph.Ring.oriented n in
  let explorer ~start:_ = Rv_explore.Ring_walk.clockwise ~n in
  let ordered =
    List.concat_map
      (fun a -> List.filter_map (fun b -> if a <> b then Some (a, b) else None)
          (List.init n Fun.id))
      (List.init n Fun.id)
  in
  let first k = List.filteri (fun i _ -> i < k) ordered in
  let split ?dispatch k =
    kernel_split ?dispatch ~g ~algorithm:R.Fast ~space:16 ~explorer ~pairs:[ (3, 11) ]
      ~positions:(`Pairs (first k)) ~delays:[ (0, 0) ] ()
  in
  let check name (r, simulated, reference, traj) ~expect_ref ~expect_traj =
    (match r with Ok _ -> () | Error e -> Alcotest.failf "%s: %s" name e);
    Alcotest.(check int) (name ^ ": simulated") (expect_ref + expect_traj) simulated;
    Alcotest.(check int) (name ^ ": reference cells") expect_ref reference;
    Alcotest.(check int) (name ^ ": trajectory cells") expect_traj traj
  in
  check "128 configs, `Auto" (split 128) ~expect_ref:0 ~expect_traj:128;
  check "127 configs, `Auto" (split 127) ~expect_ref:127 ~expect_traj:0;
  check "127 configs, `Fast" (split ~dispatch:`Fast 127) ~expect_ref:0 ~expect_traj:127;
  check "128 configs, `Reference" (split ~dispatch:`Reference 128) ~expect_ref:128
    ~expect_traj:0;
  (* A ring sweep in the shape of `rv sweep -g ring:16`: every cell on one
     kernel, chosen by size alone, and the same worst cell either way. *)
  let pairs = W.sample_pairs ~space:16 ~max_pairs:8 in
  let delays = W.ring_delays ~e:(n - 1) in
  let configs = List.length pairs * (n - 1) * List.length delays in
  let ring dispatch =
    kernel_split ~dispatch ~g ~algorithm:R.Fast ~space:16 ~explorer ~pairs
      ~positions:`Fixed_first ~delays ()
  in
  let ((auto_r, _, _, _) as auto) = ring `Auto in
  let ((ref_r, _, _, _) as refr) = ring `Reference in
  check "ring:16 Fast, `Auto" auto ~expect_ref:0 ~expect_traj:configs;
  check "ring:16 Fast, `Reference" refr ~expect_ref:configs ~expect_traj:0;
  Alcotest.(check bool) "same worst cell" true (auto_r = ref_r)

(* ------------------------------------------------------------------- Spec *)

let parse_ok spec =
  match Spec.parse_graph spec with
  | Ok g -> g
  | Error e -> Alcotest.failf "parse %s: %s" spec e

let test_parse_graphs () =
  List.iter
    (fun (spec, expected_n) ->
      let g = parse_ok spec in
      Alcotest.(check int) spec expected_n (Rv_graph.Port_graph.n g.Spec.g))
    [
      ("ring:9", 9);
      ("scrambled-ring:8:5", 8);
      ("path:6", 6);
      ("star:7", 7);
      ("tree:10:3", 10);
      ("binary:2", 7);
      ("grid:3x4", 12);
      ("torus:3x3", 9);
      ("hypercube:3", 8);
      ("complete:5", 5);
      ("wheel:6", 6);
      ("petersen", 10);
      ("lollipop:4:2", 6);
      ("barbell:3:1", 7);
      ("theta:2", 8);
      ("random:9:3:7", 9);
    ]

let test_parse_graph_errors () =
  List.iter
    (fun spec ->
      match Spec.parse_graph spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should fail" spec)
    [ "ring"; "ring:x"; "grid:3"; "grid:3x"; "nosuch:4"; "ring:2"; "torus:2x5" ]

let test_parse_graph_flags () =
  Alcotest.(check bool) "ring oriented" true (parse_ok "ring:8").Spec.oriented_ring;
  Alcotest.(check bool) "torus has certificate" true
    ((parse_ok "torus:3x4").Spec.hamiltonian <> None);
  Alcotest.(check bool) "grid has no certificate" true
    ((parse_ok "grid:3x4").Spec.hamiltonian = None)

let explorer_ok g spec =
  match Spec.parse_explorer g spec with
  | Ok e -> e
  | Error e -> Alcotest.failf "explorer %s: %s" spec e

let test_parse_explorers () =
  let ring = parse_ok "ring:8" in
  let grid = parse_ok "grid:3x3" in
  let torus = parse_ok "torus:3x3" in
  (* auto picks the natural explorer: ring walk / hamiltonian / dfs. *)
  Alcotest.(check int) "auto on ring is E=n-1" 7
    ((explorer_ok ring "auto") ~start:0).Rv_explore.Explorer.bound;
  Alcotest.(check int) "auto on torus uses the certificate" 8
    ((explorer_ok torus "auto") ~start:0).Rv_explore.Explorer.bound;
  Alcotest.(check int) "auto on grid is DFS" 16
    ((explorer_ok grid "auto") ~start:0).Rv_explore.Explorer.bound;
  Alcotest.(check int) "dfs-nr bound" 15
    ((explorer_ok grid "dfs-nr") ~start:0).Rv_explore.Explorer.bound;
  Alcotest.(check int) "unmarked bound" (2 * 9 * 16)
    ((explorer_ok grid "unmarked") ~start:0).Rv_explore.Explorer.bound;
  (* Constraint violations. *)
  (match Spec.parse_explorer grid "ring" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ring walk on grid accepted");
  (match Spec.parse_explorer grid "euler" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "euler on grid accepted");
  match Spec.parse_explorer grid "ham" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ham without certificate accepted"

let test_parse_algorithms () =
  let ok spec expected =
    match Spec.parse_algorithm spec with
    | Ok a -> Alcotest.(check string) spec expected (R.name a)
    | Error e -> Alcotest.failf "%s: %s" spec e
  in
  ok "cheap" "cheap";
  ok "cheap-sim" "cheap-sim";
  ok "fast" "fast";
  ok "fwr:2" "fwr(w=2)";
  ok "fwr-sim:3" "fwr-sim(w=3)";
  List.iter
    (fun spec ->
      match Spec.parse_algorithm spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should fail" spec)
    [ "fwr:0"; "fwr:x"; "nosuch"; "fwr" ]

(* ---------------------------------------------------------------- Reports *)

let no_fail_cell table =
  List.for_all
    (fun row ->
      List.for_all
        (fun cell -> String.length cell < 5 || String.sub cell 0 5 <> "FAIL:")
        row)
    table.Table.rows

let test_report_ids () =
  Alcotest.(check int) "14 experiments" 14 (List.length Rv_experiments.Report.ids);
  Alcotest.(check bool) "lookup A" true (Rv_experiments.Report.by_id "A" <> None);
  Alcotest.(check bool) "lookup exp-g2" true (Rv_experiments.Report.by_id "g2" <> None);
  Alcotest.(check bool) "lookup nonsense" true (Rv_experiments.Report.by_id "zz" = None)

let test_exp_a_small () =
  let t = Rv_experiments.Exp_a.table ~n:8 ~spaces:[ 4 ] () in
  Alcotest.(check int) "4 algorithms" 4 (List.length t.Table.rows);
  Alcotest.(check bool) "no failures" true (no_fail_cell t)

let test_exp_b_shape () =
  let t = Rv_experiments.Exp_b.table ~n:8 ~spaces:[ 2; 4; 8 ] () in
  Alcotest.(check bool) "no failures" true (no_fail_cell t);
  (* Worst time of cheap-sim at space L is exactly (L-1) * E. *)
  let times =
    List.map (fun row -> int_of_string (List.nth row 1)) t.Table.rows
  in
  Alcotest.(check (list int)) "times are (L-1)E" [ 7; 21; 49 ] times

let test_exp_c_shape () =
  let t = Rv_experiments.Exp_c.table ~n:8 ~spaces:[ 2; 8; 32 ] () in
  Alcotest.(check bool) "no failures" true (no_fail_cell t);
  let costs = List.map (fun row -> int_of_string (List.nth row 1)) t.Table.rows in
  (* Cost grows with log L. *)
  match costs with
  | [ a; b; c ] -> Alcotest.(check bool) "monotone" true (a <= b && b <= c && c > a)
  | _ -> Alcotest.fail "expected three rows"

let test_exp_d_tradeoff () =
  let t = Rv_experiments.Exp_d.table ~n:8 ~space:32 () in
  Alcotest.(check bool) "no failures" true (no_fail_cell t);
  (* First row (cheap end) has minimal cost; some interior row beats the
     first row's time while staying under the last row's cost envelope. *)
  let parse row = (int_of_string (List.nth row 1), int_of_string (List.nth row 3)) in
  let rows = List.map parse t.Table.rows in
  let (cheap_t, cheap_c), rest = (List.hd rows, List.tl rows) in
  Alcotest.(check bool) "cheap cost minimal" true
    (List.for_all (fun (_, c) -> c >= cheap_c) rest);
  Alcotest.(check bool) "some interior point is faster than cheap" true
    (List.exists (fun (t', _) -> t' < cheap_t) rest)

let test_exp_e_regimes () =
  let t = Rv_experiments.Exp_e.table ~n:8 ~space:8 ~labels:(3, 5) () in
  Alcotest.(check bool) "no failures" true (no_fail_cell t);
  (* In the delayed regime both metrics collapse to <= E. *)
  List.iter
    (fun row ->
      let tau = int_of_string (List.nth row 1) in
      if tau > 7 then begin
        Alcotest.(check bool) "time <= E" true (int_of_string (List.nth row 2) <= 7);
        Alcotest.(check bool) "cost <= E" true (int_of_string (List.nth row 3) <= 7)
      end)
    t.Table.rows

let test_exp_g_tables () =
  let t = Rv_experiments.Exp_g.table_progress ~n:12 ~spaces:[ 4; 16 ] () in
  Alcotest.(check bool) "no failures" true (no_fail_cell t);
  List.iter
    (fun row ->
      Alcotest.(check string) "progress distinct" "yes" (List.nth row 6))
    t.Table.rows;
  let t2 = Rv_experiments.Exp_g.table_chain ~n:12 ~spaces:[ 4; 8 ] () in
  Alcotest.(check bool) "no failures" true (no_fail_cell t2);
  List.iter
    (fun row -> Alcotest.(check string) "monotone chains" "yes" (List.nth row 2))
    t2.Table.rows

let test_exp_h_small () =
  let t = Rv_experiments.Exp_h.table ~sizes:[ 8 ] ~space:4 () in
  Alcotest.(check bool) "no failures" true (no_fail_cell t);
  Alcotest.(check int) "two algorithms" 2 (List.length t.Table.rows)

let verdict_of row = List.nth row (List.length row - 1)

let test_exp_i_small () =
  let t = Rv_experiments.Exp_i.table ~n:12 ~space:4 () in
  Alcotest.(check int) "nine variants" 9 (List.length t.Table.rows);
  (* The genuine algorithms stay correct; the two known ablation failures
     are flagged. *)
  let by_name name =
    List.find (fun row -> List.hd row = name) t.Table.rows
  in
  Alcotest.(check string) "fast correct" "correct" (verdict_of (by_name "fast (Algorithm 2)"));
  Alcotest.(check string) "cheap correct" "correct" (verdict_of (by_name "cheap (Algorithm 1)"));
  Alcotest.(check string) "no-first-explore broken" "MISSES"
    (verdict_of (by_name "cheap without first explore"));
  Alcotest.(check string) "parachute misses" "MISSES"
    (verdict_of (by_name "fast, parachute model"));
  Alcotest.(check string) "repeats fix parachute" "correct"
    (verdict_of (by_name "fast x3 repeats, parachute"))

let test_exp_j_small () =
  let t = Rv_experiments.Exp_j.table ~n:8 ~space:8 () in
  Alcotest.(check bool) "no failures" true (no_fail_cell t);
  Alcotest.(check int) "five capability rows" 5 (List.length t.Table.rows);
  (* The oracle's time is exactly E. *)
  match t.Table.rows with
  | oracle :: _ -> Alcotest.(check string) "oracle time = E" "7" (List.nth oracle 2)
  | [] -> Alcotest.fail "empty table"

let test_exp_l_small () =
  let t = Rv_experiments.Exp_l.table ~n:16 ~space:4 () in
  Alcotest.(check bool) "no failures" true (no_fail_cell t);
  (* Dlog's worst time grows with D; Fast's stays flat. *)
  let dlog_times = List.map (fun row -> int_of_string (List.nth row 1)) t.Table.rows in
  let fast_times = List.map (fun row -> int_of_string (List.nth row 3)) t.Table.rows in
  (match (dlog_times, List.rev dlog_times) with
  | first :: _, last :: _ ->
      Alcotest.(check bool) "dlog grows with D" true (last > 2 * first)
  | _ -> Alcotest.fail "empty table");
  match (fast_times, List.rev fast_times) with
  | first :: _, last :: _ ->
      Alcotest.(check bool) "fast flat-ish in D" true (last <= 2 * first)
  | _ -> Alcotest.fail "empty table"

let test_exp_m_small () =
  let t = Rv_experiments.Exp_m.table ~n:16 ~ks:[ 2; 4; 8 ] () in
  Alcotest.(check bool) "no failures" true (no_fail_cell t);
  (* Gathered round stays below E for every k. *)
  List.iter
    (fun row ->
      Alcotest.(check bool) "within E" true (int_of_string (List.nth row 1) <= 15))
    t.Table.rows

(* [rv exp --all] is deterministic; every table it prints is pinned byte
   for byte, in the same layout. *)
let test_exp_all_golden () =
  let rendered =
    String.concat ""
      (List.map
         (fun (_, t) -> Table.render_ascii t ^ "\n")
         (Rv_experiments.Report.all ()))
  in
  Alcotest.(check string) "rv exp --all output"
    (In_channel.with_open_bin (Test_data.path "golden/exp_all.golden")
       In_channel.input_all)
    rendered

let test_exp_k_small () =
  let t = Rv_experiments.Exp_k.table ~n:8 () in
  Alcotest.(check bool) "no failures" true (no_fail_cell t);
  (* The head-on row (second from last, before the async-ring row) exhibits
     the node/edge separation. *)
  match List.rev t.Table.rows with
  | _async_ring :: head_on :: _ ->
      Alcotest.(check string) "node evaded" "EVADED" (List.nth head_on 2);
      Alcotest.(check bool) "edge forced" true
        (String.length (List.nth head_on 3) >= 6 && String.sub (List.nth head_on 3) 0 6 = "forced")
  | _ -> Alcotest.fail "unexpected table shape"

let () =
  Alcotest.run "rv_experiments"
    [
      ( "workload",
        [
          tc "all_ones_label" test_all_ones_label;
          prop_sample_pairs;
          tc "exhaustive when small" test_sample_pairs_exhaustive_when_small;
          tc "ring_delays" test_ring_delays;
          tc "worst_for hand-checked" test_worst_for_agrees_with_bounds;
          tc "worst_for flags failure" test_worst_for_flags_failure;
          tc "worst_for refuses mixed bounds" test_worst_for_mixed_bounds;
          tc "auto picks its kernel by size alone" test_auto_size_rule;
        ] );
      ( "spec",
        [
          tc "graph forms" test_parse_graphs;
          tc "graph errors" test_parse_graph_errors;
          tc "graph flags" test_parse_graph_flags;
          tc "explorer forms" test_parse_explorers;
          tc "algorithm forms" test_parse_algorithms;
        ] );
      ( "reports",
        [
          tc "ids and lookup" test_report_ids;
          tc "EXP-A small" test_exp_a_small;
          tc "EXP-B shape" test_exp_b_shape;
          tc "EXP-C shape" test_exp_c_shape;
          tc "EXP-D tradeoff" test_exp_d_tradeoff;
          tc "EXP-E regimes" test_exp_e_regimes;
          tc "EXP-G pipelines" test_exp_g_tables;
          tc "EXP-H small" test_exp_h_small;
          tc "EXP-I ablations" test_exp_i_small;
          tc "EXP-J baselines" test_exp_j_small;
          tc "EXP-K async" test_exp_k_small;
          tc "EXP-L distance" test_exp_l_small;
          tc "EXP-M gathering" test_exp_m_small;
          tc "every table pinned" test_exp_all_golden;
        ] );
    ]

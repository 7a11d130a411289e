(* Tests for rv_core: the label transformation, the schedule runtime, and —
   centrally — the correctness and proven bounds of Algorithms Cheap, Fast
   and FastWithRelabeling (Propositions 2.1, 2.2, 2.3 and Corollary 2.1),
   checked by exhaustive and randomized sweeps on multiple graph families
   and exploration procedures. *)

module Pg = Rv_graph.Port_graph
module Ex = Rv_explore.Explorer
module Sim = Rv_sim.Sim
module Label = Rv_core.Label
module Schedule = Rv_core.Schedule
module Bounds = Rv_core.Bounds
module Relabel = Rv_core.Relabel
module R = Rv_core.Rendezvous
module Bitseq = Rv_util.Bitseq

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ Label *)

let test_transform_examples () =
  (* l = 1: binary "1" -> doubled "11" + "01" = "1101". *)
  Alcotest.(check string) "M(1)" "1101" (Bitseq.to_string (Label.transform 1));
  (* l = 5: binary "101" -> "110011" + "01". *)
  Alcotest.(check string) "M(5)" "11001101" (Bitseq.to_string (Label.transform 5));
  Alcotest.(check int) "length formula" (Array.length (Label.transform 5))
    (Label.transformed_length 5);
  Alcotest.(check int) "max over space" (Label.transformed_length 12)
    (Label.max_transformed_length ~space:12)

let prop_transform_prefix_free =
  qtest "M(x) is never a prefix of M(y) for x <> y"
    QCheck.(pair (int_range 1 4096) (int_range 1 4096))
    (fun (x, y) ->
      x = y
      || begin
           let mx = Label.transform x and my = Label.transform y in
           (not (Bitseq.is_prefix mx my)) && not (Bitseq.is_prefix my mx)
         end)

let prop_transform_injective =
  qtest "M is injective"
    QCheck.(pair (int_range 1 4096) (int_range 1 4096))
    (fun (x, y) -> x = y || Label.transform x <> Label.transform y)

let test_label_check () =
  Label.check ~space:10 1;
  Label.check ~space:10 10;
  (match Label.check ~space:10 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 accepted");
  match Label.check ~space:10 11 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "11 accepted"

(* --------------------------------------------------------------- Schedule *)

let ring_ex n = Rv_explore.Ring_walk.clockwise ~n

let test_schedule_accounting () =
  let e = ring_ex 8 in
  let s = [ Schedule.Explore e; Schedule.Pause 10; Schedule.Explore e ] in
  Alcotest.(check int) "duration" 24 (Schedule.duration s);
  Alcotest.(check int) "budget" 14 (Schedule.traversal_budget s);
  Alcotest.(check int) "explorations" 2 (Schedule.explorations s)

let test_schedule_replay () =
  let g = Rv_graph.Ring.oriented 4 in
  let e = ring_ex 4 in
  let s = [ Schedule.Pause 2; Schedule.Explore e; Schedule.Pause 1 ] in
  let _, actions = Sim.solo ~g ~rounds:8 ~start:0 (Schedule.to_instance s) in
  let expected =
    [ Ex.Wait; Ex.Wait; Ex.Move 0; Ex.Move 0; Ex.Move 0; Ex.Wait; Ex.Wait; Ex.Wait ]
  in
  Alcotest.(check bool) "action sequence" true (actions = expected)

let test_schedule_zero_blocks () =
  let g = Rv_graph.Ring.oriented 4 in
  let s = [ Schedule.Pause 0; Schedule.Explore (Ex.idle ~bound:0); Schedule.Pause 1 ] in
  let _, actions = Sim.solo ~g ~rounds:2 ~start:0 (Schedule.to_instance s) in
  Alcotest.(check bool) "all waits" true (List.for_all (fun a -> a = Ex.Wait) actions)

let test_blocks_helper () =
  let e = ring_ex 5 in
  let s = Schedule.blocks ~explorer:e [ true; false; true ] in
  Alcotest.(check int) "duration 3E" 12 (Schedule.duration s);
  Alcotest.(check int) "two explorations" 2 (Schedule.explorations s)

(* ---------------------------------------------------------------- Relabel *)

let test_scheme_values () =
  let s = Relabel.scheme ~space:6 ~weight:2 in
  Alcotest.(check int) "t for C(t,2) >= 6" 4 s.Relabel.t;
  let s = Relabel.scheme ~space:256 ~weight:2 in
  Alcotest.(check int) "t for C(t,2) >= 256" 24 s.Relabel.t

let prop_relabel_distinct_fixed_weight =
  qtest "relabeling is injective with fixed length and weight"
    QCheck.(pair (int_range 2 60) (int_range 1 4))
    (fun (space, weight) ->
      let s = Relabel.scheme ~space ~weight in
      let strings = List.init space (fun i -> Relabel.apply s (i + 1)) in
      List.length
        (List.sort_uniq (Rv_util.Ord.by Bitseq.to_string Rv_util.Ord.string) strings)
      = space
      && List.for_all
           (fun b ->
             Array.length b = s.Relabel.t && Rv_util.Combinat.weight b = weight)
           strings)

let test_t_upper_bound () =
  (* Corollary 2.1: t <= w * L^(1/w). *)
  List.iter
    (fun (space, w) ->
      let s = Relabel.scheme ~space ~weight:w in
      Alcotest.(check bool)
        (Printf.sprintf "t bound L=%d w=%d" space w)
        true
        (s.Relabel.t <= Relabel.t_upper_bound_constant_w ~space ~w))
    [ (16, 2); (64, 2); (256, 2); (64, 3); (256, 3); (1024, 3); (1024, 4) ]

(* ----------------------------------------------------- Algorithm structure *)

let test_cheap_structure () =
  let e = ring_ex 8 in
  match Rv_core.Cheap.schedule ~label:3 ~explorer:e with
  | [ Schedule.Explore _; Schedule.Pause p; Schedule.Explore _ ] ->
      Alcotest.(check int) "pause = 2lE" (2 * 3 * 7) p
  | _ -> Alcotest.fail "unexpected shape"

let test_cheap_sim_structure () =
  let e = ring_ex 8 in
  match Rv_core.Cheap.schedule_simultaneous ~label:4 ~explorer:e with
  | [ Schedule.Pause p; Schedule.Explore _ ] ->
      Alcotest.(check int) "pause = (l-1)E" (3 * 7) p
  | _ -> Alcotest.fail "unexpected shape"

let test_fast_pattern () =
  (* Label 2 = "10"; M = "110001"... binary 10 doubled = 1 1 0 0, plus 01:
     M(2) = 110001.  T = 1 followed by each bit doubled. *)
  Alcotest.(check (list bool)) "pattern_sim = M(2)"
    [ true; true; false; false; false; true ]
    (Rv_core.Fast.pattern_simultaneous ~label:2);
  let t = Rv_core.Fast.pattern ~label:2 in
  Alcotest.(check int) "|T| = 2m+1" 13 (List.length t);
  Alcotest.(check bool) "T[1] = 1" true (List.hd t);
  (* doubled: positions 2i, 2i+1 equal *)
  let arr = Array.of_list t in
  for i = 1 to 6 do
    Alcotest.(check bool) "doubling" true (arr.((2 * i) - 1) = arr.(2 * i))
  done

let test_fwr_explorations () =
  let e = ring_ex 8 in
  let scheme = Relabel.scheme ~space:64 ~weight:2 in
  let sim = Rv_core.Fwr.schedule_simultaneous ~scheme ~label:17 ~explorer:e in
  Alcotest.(check int) "sim explorations = w" 2 (Schedule.explorations sim);
  let gen = Rv_core.Fwr.schedule ~scheme ~label:17 ~explorer:e in
  Alcotest.(check int) "general explorations = 2w+1" 5 (Schedule.explorations gen)

(* ------------------------------------------------------- Bounds formulas *)

let test_bound_formulas () =
  Alcotest.(check int) "cheap cost" 30 (Bounds.cheap_cost 10);
  Alcotest.(check int) "cheap time pair" 90 (Bounds.cheap_time_pair ~e:10 ~smaller_label:3);
  Alcotest.(check int) "cheap time space" 330 (Bounds.cheap_time ~e:10 ~space:16);
  Alcotest.(check int) "fast time" 250 (Bounds.fast_time ~e:10 ~space:32);
  Alcotest.(check int) "fast cost" 500 (Bounds.fast_cost ~e:10 ~space:32);
  Alcotest.(check int) "floor_log2" 5 (Bounds.floor_log2 32);
  Alcotest.(check int) "floor_log2 31" 4 (Bounds.floor_log2 31)

let prop_first_difference =
  qtest "first_difference finds the first differing position"
    QCheck.(pair (int_range 1 500) (int_range 1 500))
    (fun (x, y) ->
      if x = y then true
      else begin
        let a = Label.transform x and b = Label.transform y in
        let j = Bounds.first_difference a b in
        let prefix_equal =
          let rec eq i = i >= j - 1 || (a.(i) = b.(i) && eq (i + 1)) in
          eq 0
        in
        prefix_equal
        && (j > Array.length a || j > Array.length b || a.(j - 1) <> b.(j - 1))
      end)

(* ----------------------------------------- Correctness and proven bounds *)

(* Exhaustive: all label pairs, all gaps, delays {0,1,E,E+1}, oriented ring. *)
let test_cheap_exhaustive_ring () =
  let n = 8 in
  let g = Rv_graph.Ring.oriented n in
  let e = n - 1 in
  let explorer ~start = ignore start; ring_ex n in
  let space = 5 in
  for la = 1 to space do
    for lb = 1 to space do
      if la <> lb then
        for gap = 1 to n - 1 do
          List.iter
            (fun (da, db) ->
              let out =
                R.run ~g ~explorer ~algorithm:R.Cheap ~space
                  { R.label = la; start = 0; delay = da }
                  { R.label = lb; start = gap; delay = db }
              in
              let t = Sim.time out in
              let smaller = min la lb in
              if max da db <= e then
                Alcotest.(check bool) "time within (2l+3)E" true
                  (t <= Bounds.cheap_time_pair ~e ~smaller_label:smaller);
              Alcotest.(check bool) "cost within 3E" true
                (out.Sim.cost <= Bounds.cheap_cost e))
            [ (0, 0); (0, 1); (0, e); (0, e + 1); (1, 0); (e, 0) ]
        done
    done
  done

let test_cheap_sim_exact_cost () =
  (* Simultaneous Cheap: cost <= E and the larger-labelled agent never moves
     before the meeting. *)
  let n = 10 in
  let g = Rv_graph.Ring.oriented n in
  let explorer ~start = ignore start; ring_ex n in
  let space = 6 in
  for la = 1 to space do
    for lb = 1 to space do
      if la <> lb then
        for gap = 1 to n - 1 do
          let out =
            R.run ~g ~explorer ~algorithm:R.Cheap_simultaneous ~space
              { R.label = la; start = 0; delay = 0 }
              { R.label = lb; start = gap; delay = 0 }
          in
          Alcotest.(check bool) "met" true out.Sim.met;
          Alcotest.(check bool) "cost <= E" true (out.Sim.cost <= n - 1);
          let larger_cost = if la > lb then out.Sim.cost_a else out.Sim.cost_b in
          Alcotest.(check int) "larger label idle" 0 larger_cost;
          Alcotest.(check bool) "time <= lE" true
            (Sim.time out <= Bounds.cheap_sim_time_pair ~e:(n - 1) ~smaller_label:(min la lb))
        done
    done
  done

let test_fast_exhaustive_ring () =
  let n = 8 in
  let g = Rv_graph.Ring.oriented n in
  let e = n - 1 in
  let explorer ~start = ignore start; ring_ex n in
  let space = 6 in
  for la = 1 to space do
    for lb = 1 to space do
      if la <> lb then
        for gap = 1 to n - 1 do
          List.iter
            (fun (da, db) ->
              let out =
                R.run ~g ~explorer ~algorithm:R.Fast ~space
                  { R.label = la; start = 0; delay = da }
                  { R.label = lb; start = gap; delay = db }
              in
              let t = Sim.time out in
              let tau = max da db in
              let bound =
                if tau > e then e + tau (* found while asleep, by wake + E *)
                else Bounds.fast_time_pair ~e ~label_a:la ~label_b:lb
              in
              Alcotest.(check bool)
                (Printf.sprintf "time %d within %d (la=%d lb=%d gap=%d tau=%d)" t bound
                   la lb gap tau)
                true (t <= bound);
              Alcotest.(check bool) "cost within Prop 2.2" true
                (out.Sim.cost <= Bounds.fast_cost ~e ~space))
            [ (0, 0); (0, 3); (0, e); (0, e + 2); (2, 0) ]
        done
    done
  done

let test_fast_sim_per_pair_bound () =
  let n = 12 in
  let g = Rv_graph.Ring.oriented n in
  let e = n - 1 in
  let explorer ~start = ignore start; ring_ex n in
  let space = 8 in
  for la = 1 to space do
    for lb = 1 to space do
      if la <> lb then
        for gap = 1 to n - 1 do
          let out =
            R.run ~g ~explorer ~algorithm:R.Fast_simultaneous ~space
              { R.label = la; start = 0; delay = 0 }
              { R.label = lb; start = gap; delay = 0 }
          in
          Alcotest.(check bool) "time <= jE" true
            (Sim.time out <= Bounds.fast_sim_time_pair ~e ~label_a:la ~label_b:lb)
        done
    done
  done

let test_fwr_bounds_ring () =
  let n = 8 in
  let g = Rv_graph.Ring.oriented n in
  let e = n - 1 in
  let explorer ~start = ignore start; ring_ex n in
  let space = 16 in
  List.iter
    (fun w ->
      let scheme = Relabel.scheme ~space ~weight:w in
      for la = 1 to space do
        for lb = 1 to space do
          if la <> lb then begin
            (* Simultaneous variant: exact cost accounting of Prop 2.3. *)
            let out =
              R.run ~g ~explorer ~algorithm:(R.Fwr_simultaneous w) ~space
                { R.label = la; start = 0; delay = 0 }
                { R.label = lb; start = n / 2; delay = 0 }
            in
            Alcotest.(check bool) "sim cost <= 2wE" true
              (out.Sim.cost <= Bounds.fwr_sim_cost ~e ~scheme);
            Alcotest.(check bool) "sim time <= jE" true
              (Sim.time out <= Bounds.fwr_sim_time_pair ~e ~scheme ~label_a:la ~label_b:lb);
            (* General variant under delay. *)
            let out =
              R.run ~g ~explorer ~algorithm:(R.Fwr w) ~space
                { R.label = la; start = 0; delay = 0 }
                { R.label = lb; start = 1 + ((la + lb) mod (n - 1)); delay = (la * lb) mod e }
            in
            Alcotest.(check bool) "general time within Prop 2.3" true
              (Sim.time out <= Bounds.fwr_time ~e ~scheme);
            Alcotest.(check bool) "general cost within 2(2w+1)E" true
              (out.Sim.cost <= Bounds.fwr_cost_general ~e ~scheme)
          end
        done
      done)
    [ 1; 2; 3 ]

(* Randomized cross-family correctness: any graph family, its natural
   explorer, random labels/positions/delays — the agents always meet within
   the proven pair bound. *)
let family_setup seed =
  let rng = Rv_util.Rng.create ~seed in
  match seed mod 6 with
  | 0 ->
      let n = 6 + (seed mod 8) in
      let g = Rv_graph.Ring.oriented n in
      (g, fun ~start -> ignore start; ring_ex n)
  | 1 ->
      let g = Rv_graph.Grid.make ~rows:(2 + (seed mod 2)) ~cols:(2 + (seed mod 3)) in
      (g, fun ~start -> Rv_explore.Map_dfs.returning g ~start)
  | 2 ->
      let g = Rv_graph.Tree.random rng (5 + (seed mod 8)) in
      (g, fun ~start -> Rv_explore.Map_dfs.non_returning g ~start)
  | 3 ->
      let g = Rv_graph.Torus.make ~rows:3 ~cols:3 in
      (g, fun ~start -> Rv_explore.Euler_walk.closed g ~start)
  | 4 ->
      let dim = 2 + (seed mod 2) in
      let g = Rv_graph.Hypercube.make ~dim in
      let cycle = Rv_graph.Hypercube.hamiltonian_cycle ~dim in
      (g, fun ~start -> Rv_explore.Ham_walk.make g ~cycle ~start)
  | _ ->
      let g = Rv_graph.Random_graph.connected rng ~n:(5 + (seed mod 8)) ~extra_edges:(seed mod 4) in
      (g, fun ~start -> Rv_explore.Map_dfs.returning g ~start)

let prop_cross_family_correctness =
  qtest ~count:150 "all algorithms meet within proven bounds on all families"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g, explorer = family_setup seed in
      let n = Pg.n g in
      let e = (explorer ~start:0).Ex.bound in
      let space = 8 in
      let la = 1 + (seed mod space) in
      let lb = 1 + ((seed / space) mod space) in
      if la = lb then true
      else begin
        let sa = seed mod n in
        let sb = (sa + 1 + (seed / 7 mod (n - 1))) mod n in
        let delay = seed / 11 mod (e + 2) in
        let algorithms = [ R.Cheap; R.Fast; R.Fwr 2 ] in
        List.for_all
          (fun algorithm ->
            let out =
              R.run ~g ~explorer ~algorithm ~space
                { R.label = la; start = sa; delay = 0 }
                { R.label = lb; start = sb; delay }
            in
            out.Sim.met
            && Sim.time out <= R.proven_time_bound algorithm ~e ~space + delay
            && out.Sim.cost <= R.proven_cost_bound algorithm ~e ~space)
          algorithms
      end)

let prop_port_relabeling_invariance =
  (* Algorithms only see degrees and ports, so running on a port-relabeled
     ring with a map explorer still meets within the same bounds. *)
  qtest ~count:50 "correctness survives random port relabeling"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rv_util.Rng.create ~seed in
      let n = 6 + (seed mod 6) in
      let g = Rv_graph.Ring.scrambled rng n in
      let explorer ~start = Rv_explore.Map_dfs.returning g ~start in
      let e = (2 * n) - 2 in
      let la = 1 + (seed mod 8) and lb = 1 + ((seed / 8) mod 8) in
      if la = lb then true
      else begin
        let out =
          R.run ~g ~explorer ~algorithm:R.Fast ~space:8
            { R.label = la; start = 0; delay = 0 }
            { R.label = lb; start = n / 2; delay = seed mod 3 }
        in
        out.Sim.met && out.Sim.cost <= Bounds.fast_cost ~e ~space:8
      end)

let test_parachute_small_delay_bounds () =
  (* For tau <= E the proofs of Props. 2.1/2.2 never use the waiting-model
     "find the sleeper" case, so the bounds carry over to the parachute
     model verbatim.  (For tau > E they need schedule repetition; see
     EXP-I.) *)
  let n = 8 in
  let g = Rv_graph.Ring.oriented n in
  let e = n - 1 in
  let explorer ~start = ignore start; ring_ex n in
  let space = 5 in
  for la = 1 to space do
    for lb = 1 to space do
      if la <> lb then
        for gap = 1 to n - 1 do
          List.iter
            (fun delay ->
              List.iter
                (fun (algorithm, bound) ->
                  let out =
                    R.run ~model:Rv_sim.Sim.Parachute ~g ~explorer ~algorithm ~space
                      { R.label = la; start = 0; delay = 0 }
                      { R.label = lb; start = gap; delay }
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "parachute %s meets (la=%d lb=%d gap=%d tau=%d)"
                       (R.name algorithm) la lb gap delay)
                    true out.Sim.met;
                  Alcotest.(check bool) "within bound" true (Sim.time out <= bound la lb))
                [
                  (R.Cheap, fun la lb -> Bounds.cheap_time_pair ~e ~smaller_label:(min la lb));
                  (R.Fast, fun la lb -> Bounds.fast_time_pair ~e ~label_a:la ~label_b:lb);
                ])
            [ 0; 1; e / 2; e ]
        done
    done
  done

(* ---------------------------------------------------------------- Unknown E *)

let test_iterations_needed () =
  Alcotest.(check int) "n=8" 3 (Rv_core.Unknown_e.iterations_needed ~n:8);
  Alcotest.(check int) "n=9" 4 (Rv_core.Unknown_e.iterations_needed ~n:9);
  Alcotest.(check int) "n=2" 1 (Rv_core.Unknown_e.iterations_needed ~n:2)

let test_ring_family_bounds () =
  let fam = Rv_core.Unknown_e.ring_explorer_family ~iterations:4 in
  Alcotest.(check (list int)) "E_i = 2^i - 1" [ 1; 3; 7; 15 ]
    (List.map (fun (e : Ex.t) -> e.Ex.bound) fam)

let test_unknown_e_meets () =
  (* Iterated Cheap and Fast on rings the agents do not know the size of. *)
  List.iter
    (fun n ->
      let g = Rv_graph.Ring.oriented n in
      let iterations = Rv_core.Unknown_e.iterations_needed ~n in
      let family = Rv_core.Unknown_e.ring_explorer_family ~iterations in
      let space = 6 in
      List.iter
        (fun make ->
          for la = 1 to space do
            for lb = 1 to space do
              if la <> lb then
                List.iter
                  (fun delay ->
                    let sched_a = make la and sched_b = make lb in
                    let out =
                      Sim.run ~g
                        ~max_rounds:(Schedule.duration sched_a + Schedule.duration sched_b + delay + 1)
                        { Sim.start = 0; delay = 0; step = Schedule.to_instance sched_a }
                        { Sim.start = n / 2; delay; step = Schedule.to_instance sched_b }
                    in
                    Alcotest.(check bool)
                      (Printf.sprintf "unknown-E meets (n=%d la=%d lb=%d delay=%d)" n la
                         lb delay)
                      true out.Sim.met)
                  [ 0; 1 ]
            done
          done)
        [
          (fun label -> Rv_core.Unknown_e.cheap ~space ~label ~explorers:family);
          (fun label -> Rv_core.Unknown_e.fast ~space ~label ~explorers:family);
        ])
    [ 6; 11; 16 ]

let test_unknown_e_overhead_bounded () =
  let n = 16 in
  let g = Rv_graph.Ring.oriented n in
  let iterations = Rv_core.Unknown_e.iterations_needed ~n in
  let family = Rv_core.Unknown_e.ring_explorer_family ~iterations in
  let space = 6 in
  let known la = Rv_core.Fast.schedule ~label:la ~explorer:(ring_ex n) in
  let unknown la = Rv_core.Unknown_e.fast ~space ~label:la ~explorers:family in
  let time make la lb =
    let sa = make la and sb = make lb in
    let out =
      Sim.run ~g ~max_rounds:(Schedule.duration sa + Schedule.duration sb + 1)
        { Sim.start = 0; delay = 0; step = Schedule.to_instance sa }
        { Sim.start = n / 2; delay = 0; step = Schedule.to_instance sb }
    in
    Sim.time out
  in
  let tk = time known 3 5 and tu = time unknown 3 5 in
  Alcotest.(check bool)
    (Printf.sprintf "telescoping overhead bounded (known %d, unknown %d)" tk tu)
    true
    (tu <= 6 * tk)

let prop_schedule_blocks_replay =
  (* Differential test: for any activity pattern, the instance's action at
     round r matches the pattern's block (explore blocks move on the ring,
     pause blocks wait). *)
  qtest ~count:150 "Schedule.blocks replay matches the pattern"
    QCheck.(pair (int_range 3 12) (list_of_size Gen.(1 -- 10) bool))
    (fun (n, pattern) ->
      if pattern = [] then true
      else begin
        let g = Rv_graph.Ring.oriented n in
        let explorer = ring_ex n in
        let sched = Schedule.blocks ~explorer pattern in
        let e = n - 1 in
        let _, actions =
          Sim.solo ~g ~rounds:(List.length pattern * e) ~start:0
            (Schedule.to_instance sched)
        in
        let arr = Array.of_list actions in
        List.for_all2
          (fun idx active ->
            let ok = ref true in
            for r = idx * e to ((idx + 1) * e) - 1 do
              let is_move = match arr.(r) with Ex.Move _ -> true | Ex.Wait -> false in
              if is_move <> active then ok := false
            done;
            !ok)
          (List.init (List.length pattern) (fun i -> i))
          pattern
      end)

(* -------------------------------------------------------- Run validations *)

let test_run_validations () =
  let n = 6 in
  let g = Rv_graph.Ring.oriented n in
  let explorer ~start = ignore start; ring_ex n in
  (match
     R.run ~g ~explorer ~algorithm:R.Fast ~space:8
       { R.label = 3; start = 0; delay = 0 }
       { R.label = 3; start = 2; delay = 0 }
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "same labels accepted");
  let mixed ~start =
    if start = 0 then ring_ex n else Rv_explore.Map_dfs.returning g ~start
  in
  match
    R.run ~g ~explorer:mixed ~algorithm:R.Fast ~space:8
      { R.label = 3; start = 0; delay = 0 }
      { R.label = 4; start = 2; delay = 0 }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatched explorer bounds accepted"

(* Every input that [run] would reject with an exception is an [Error]
   from [check_parties], and every accepted one runs. *)
let test_check_parties () =
  let n = 8 and space = 16 in
  let p label start delay = { R.label; start; delay } in
  let ok = (p 3 0 0, p 11 4 0) in
  let cases =
    [
      ("valid", ok, true);
      ("valid edges", (p 1 0 0, p 16 7 1000), true);
      ("label above L", (p 99 0 0, p 11 4 0), false);
      ("label 0", (p 3 0 0, p 0 4 0), false);
      ("same labels", (p 2 0 0, p 2 4 0), false);
      ("start past n", (p 3 0 0, p 11 99 0), false);
      ("start n", (p 3 8 0, p 11 4 0), false);
      ("negative start", (p 3 (-1) 0, p 11 4 0), false);
      ("same starts", (p 3 0 0, p 11 0 0), false);
      ("negative delay", (p 3 0 (-3), p 11 4 0), false);
    ]
  in
  let g = Rv_graph.Ring.oriented n in
  let explorer ~start = ignore start; ring_ex n in
  List.iter
    (fun (name, (a, b), valid) ->
      match R.check_parties ~n ~space a b with
      | Ok () ->
          Alcotest.(check bool) (name ^ " accepted") true valid;
          let out = R.run ~g ~explorer ~algorithm:R.Fast ~space a b in
          Alcotest.(check bool) (name ^ " meets") true (out.Sim.meeting_round <> None)
      | Error msg ->
          Alcotest.(check bool) (name ^ " rejected: " ^ msg) false valid;
          (match R.run ~g ~explorer ~algorithm:R.Fast ~space a b with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.fail (name ^ ": rejected input runs")))
    cases;
  Alcotest.(check bool) "the error names the agent and the field" true
    (R.check_parties ~n ~space:8 (p 3 0 0) (p 11 4 0)
    = Error "agent B: label 11 is outside 1..8")

let test_algorithm_names () =
  Alcotest.(check string) "cheap" "cheap" (R.name R.Cheap);
  Alcotest.(check string) "fwr" "fwr(w=3)" (R.name (R.Fwr 3));
  Alcotest.(check bool) "cheap delay tolerant" true (R.delay_tolerant R.Cheap);
  Alcotest.(check bool) "fast-sim not" false (R.delay_tolerant R.Fast_simultaneous)

let () =
  Alcotest.run "rv_core"
    [
      ( "label",
        [
          tc "transform examples" test_transform_examples;
          prop_transform_prefix_free;
          prop_transform_injective;
          tc "check" test_label_check;
        ] );
      ( "schedule",
        [
          tc "accounting" test_schedule_accounting;
          tc "replay" test_schedule_replay;
          tc "zero blocks" test_schedule_zero_blocks;
          tc "blocks helper" test_blocks_helper;
        ] );
      ( "relabel",
        [
          tc "scheme values" test_scheme_values;
          prop_relabel_distinct_fixed_weight;
          tc "t upper bound (Cor 2.1)" test_t_upper_bound;
        ] );
      ( "structure",
        [
          tc "cheap schedule" test_cheap_structure;
          tc "cheap-sim schedule" test_cheap_sim_structure;
          tc "fast pattern" test_fast_pattern;
          tc "fwr explorations" test_fwr_explorations;
        ] );
      ("bounds", [ tc "formulas" test_bound_formulas; prop_first_difference ]);
      ( "propositions",
        [
          tc "Prop 2.1: cheap exhaustive on ring" test_cheap_exhaustive_ring;
          tc "Prop 2.1: cheap-sim exact cost" test_cheap_sim_exact_cost;
          tc "Prop 2.2: fast exhaustive on ring" test_fast_exhaustive_ring;
          tc "Prop 2.2: fast-sim per-pair bound" test_fast_sim_per_pair_bound;
          tc "Prop 2.3: fwr bounds on ring" test_fwr_bounds_ring;
          tc "parachute model, tau <= E" test_parachute_small_delay_bounds;
          prop_cross_family_correctness;
          prop_port_relabeling_invariance;
        ] );
      ("replay", [ prop_schedule_blocks_replay ]);
      ( "unknown_e",
        [
          tc "iterations_needed" test_iterations_needed;
          tc "ring family bounds" test_ring_family_bounds;
          tc "iterated algorithms meet" test_unknown_e_meets;
          tc "telescoping overhead bounded" test_unknown_e_overhead_bounded;
        ] );
      ( "facade",
        [
          tc "validations" test_run_validations;
          tc "check_parties" test_check_parties;
          tc "names" test_algorithm_names;
        ] );
    ]

(* Tests for rv_sim: the synchronous execution model — meeting semantics,
   unnoticed edge crossings, wake-up delays in both placement models, cost
   accounting and trace recording.  The worst case over the adversary's
   choices is Workload.worst_for's, tested in test_experiments. *)

module Pg = Rv_graph.Port_graph
module Ex = Rv_explore.Explorer
module Sim = Rv_sim.Sim

let tc name f = Alcotest.test_case name `Quick f

(* Scripted agents: a fixed action list, then wait. *)
let scripted actions =
  let remaining = ref actions in
  fun (_ : Ex.observation) ->
    match !remaining with
    | [] -> Ex.Wait
    | a :: rest ->
        remaining := rest;
        a

let ring n = Rv_graph.Ring.oriented n

let test_basic_meeting () =
  (* Ring of 6: A walks clockwise from 0, B waits at 3; meet at round 3. *)
  let g = ring 6 in
  let out =
    Sim.run ~g ~max_rounds:100
      { Sim.start = 0; delay = 0; step = scripted [ Ex.Move 0; Ex.Move 0; Ex.Move 0 ] }
      { Sim.start = 3; delay = 0; step = scripted [] }
  in
  Alcotest.(check bool) "met" true out.Sim.met;
  Alcotest.(check (option int)) "round" (Some 3) out.Sim.meeting_round;
  Alcotest.(check (option int)) "node" (Some 3) out.Sim.meeting_node;
  Alcotest.(check int) "cost" 3 out.Sim.cost;
  Alcotest.(check int) "cost split" 0 out.Sim.cost_b

let test_crossing_not_meeting () =
  (* Adjacent agents swap along the same edge: they cross, do not meet. *)
  let g = ring 6 in
  let out =
    Sim.run ~record:true ~g ~max_rounds:5
      { Sim.start = 0; delay = 0; step = scripted [ Ex.Move 0 ] }
      { Sim.start = 1; delay = 0; step = scripted [ Ex.Move 1 ] }
  in
  Alcotest.(check bool) "not met" false out.Sim.met;
  Alcotest.(check int) "one crossing" 1 out.Sim.crossings;
  match out.Sim.trace with
  | Some t -> Alcotest.(check int) "trace crossing" 1 (Rv_sim.Trace.crossings t)
  | None -> Alcotest.fail "trace requested"

let test_crossing_then_meeting () =
  (* After crossing, A keeps walking clockwise and catches B, who stops. *)
  let g = ring 6 in
  let out =
    Sim.run ~g ~max_rounds:100
      { Sim.start = 0; delay = 0; step = scripted (List.init 10 (fun _ -> Ex.Move 0)) }
      { Sim.start = 1; delay = 0; step = scripted [ Ex.Move 1 ] }
  in
  Alcotest.(check bool) "met eventually" true out.Sim.met;
  (* B is at node 0 from round 1 on; A reaches node 0 after 6 moves. *)
  Alcotest.(check (option int)) "round" (Some 6) out.Sim.meeting_round

let test_waiting_model_finds_sleeper () =
  (* B sleeps for 20 rounds; A explores and finds it at its start node. *)
  let g = ring 6 in
  let out =
    Sim.run ~g ~max_rounds:100
      { Sim.start = 0; delay = 0; step = scripted (List.init 5 (fun _ -> Ex.Move 0)) }
      { Sim.start = 3; delay = 20; step = scripted [] }
  in
  Alcotest.(check (option int)) "found sleeping B" (Some 3) out.Sim.meeting_round

let test_parachute_model_protects_sleeper () =
  (* Same configuration in the parachute model: B is absent until round 21,
     so A passes through node 3 without meeting. *)
  let g = ring 6 in
  let out =
    Sim.run ~model:Sim.Parachute ~g ~max_rounds:15
      { Sim.start = 0; delay = 0; step = scripted (List.init 5 (fun _ -> Ex.Move 0)) }
      { Sim.start = 3; delay = 20; step = scripted [] }
  in
  Alcotest.(check bool) "not met before wake" false out.Sim.met

let test_parachute_meeting_after_wake () =
  let g = ring 6 in
  let out =
    Sim.run ~model:Sim.Parachute ~g ~max_rounds:100
      { Sim.start = 0; delay = 0;
        step = scripted (List.init 40 (fun i -> if i < 3 then Ex.Move 0 else Ex.Wait)) }
      { Sim.start = 5; delay = 9; step = scripted (List.init 10 (fun _ -> Ex.Move 0)) }
  in
  (* A sits at node 3 from round 3; B wakes in round 10 at node 5 and walks
     clockwise, reaching node 3 in 4 moves: round 13. *)
  Alcotest.(check (option int)) "round" (Some 13) out.Sim.meeting_round

let test_validation () =
  let g = ring 5 in
  let idle () = scripted [] in
  (match
     Sim.run ~g ~max_rounds:5
       { Sim.start = 2; delay = 0; step = idle () }
       { Sim.start = 2; delay = 0; step = idle () }
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "identical starts accepted");
  match
    Sim.run ~g ~max_rounds:5
      { Sim.start = 0; delay = 0; step = scripted [ Ex.Move 9 ] }
      { Sim.start = 2; delay = 0; step = idle () }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid port accepted"

let test_delay_normalization () =
  let g = ring 6 in
  let walk () = scripted [ Ex.Move 0; Ex.Move 0; Ex.Move 0 ] in
  (* Same scenario as [test_basic_meeting] with both delays shifted up by
     2: the common prefix is silent (both asleep) but counted in the
     reported rounds. *)
  let out =
    Sim.run ~g ~max_rounds:100
      { Sim.start = 0; delay = 2; step = walk () }
      { Sim.start = 3; delay = 2; step = scripted [] }
  in
  Alcotest.(check (option int)) "round shifted" (Some 5) out.Sim.meeting_round;
  Alcotest.(check (option int)) "node" (Some 3) out.Sim.meeting_node;
  Alcotest.(check int) "cost unchanged" 3 out.Sim.cost;
  (* Unequal delays keep their difference: (2, 5) behaves like (0, 3)
     with every reported round shifted by 2. *)
  let out =
    Sim.run ~g ~max_rounds:100
      { Sim.start = 0; delay = 2; step = walk () }
      { Sim.start = 3; delay = 5; step = scripted [] }
  in
  Alcotest.(check (option int)) "asymmetric round" (Some 5) out.Sim.meeting_round;
  (* The horizon counts the silent prefix too: max_rounds 4 leaves only
     two live rounds after a common delay of 2. *)
  let out =
    Sim.run ~g ~max_rounds:4
      { Sim.start = 0; delay = 2; step = walk () }
      { Sim.start = 3; delay = 2; step = scripted [] }
  in
  Alcotest.(check bool) "capped: not met" false out.Sim.met;
  Alcotest.(check int) "capped rounds_run" 4 out.Sim.rounds_run

let test_max_rounds_cap () =
  let g = ring 5 in
  let out =
    Sim.run ~g ~max_rounds:7
      { Sim.start = 0; delay = 0; step = scripted [] }
      { Sim.start = 2; delay = 0; step = scripted [] }
  in
  Alcotest.(check bool) "not met" false out.Sim.met;
  Alcotest.(check int) "ran to cap" 7 out.Sim.rounds_run

let test_cost_accounting () =
  let g = ring 8 in
  let out =
    Sim.run ~g ~max_rounds:6
      { Sim.start = 0; delay = 0;
        step = scripted [ Ex.Move 0; Ex.Wait; Ex.Move 0; Ex.Wait ] }
      { Sim.start = 4; delay = 0; step = scripted [ Ex.Move 1; Ex.Wait; Ex.Move 1 ] }
  in
  (* A: 2 moves; B: 2 moves; they meet at node 2 in round 3. *)
  Alcotest.(check (option int)) "meet" (Some 3) out.Sim.meeting_round;
  Alcotest.(check int) "cost a" 2 out.Sim.cost_a;
  Alcotest.(check int) "cost b" 2 out.Sim.cost_b;
  Alcotest.(check int) "total" 4 out.Sim.cost

let test_time_accessor () =
  let g = ring 6 in
  let out =
    Sim.run ~g ~max_rounds:10
      { Sim.start = 0; delay = 0; step = scripted [ Ex.Move 0 ] }
      { Sim.start = 1; delay = 0; step = scripted [] }
  in
  Alcotest.(check int) "time" 1 (Sim.time out);
  let stuck =
    Sim.run ~g ~max_rounds:2
      { Sim.start = 0; delay = 0; step = scripted [] }
      { Sim.start = 3; delay = 0; step = scripted [] }
  in
  match Sim.time stuck with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "time of non-meeting accepted"

let test_time_from_later_wake () =
  let g = ring 6 in
  (* A finds sleeping B at round 3; B's wake is round 11: alternative
     accounting clamps at 0. *)
  let out =
    Sim.run ~g ~max_rounds:50
      { Sim.start = 0; delay = 0; step = scripted (List.init 5 (fun _ -> Ex.Move 0)) }
      { Sim.start = 3; delay = 10; step = scripted [] }
  in
  Alcotest.(check int) "clamped" 0 (Sim.time_from_later_wake out ~later_delay:10);
  (* Meeting after the later wake: the offset subtracts. *)
  let out =
    Sim.run ~g ~max_rounds:50
      { Sim.start = 0; delay = 0;
        step = scripted (Ex.Wait :: Ex.Wait :: List.init 5 (fun _ -> Ex.Move 0)) }
      { Sim.start = 3; delay = 1; step = scripted [] }
  in
  Alcotest.(check int) "offset" (Sim.time out - 1)
    (Sim.time_from_later_wake out ~later_delay:1)

let test_solo () =
  let g = ring 6 in
  let final, actions =
    Sim.solo ~g ~rounds:4 ~start:2 (scripted [ Ex.Move 0; Ex.Move 0; Ex.Move 1 ])
  in
  Alcotest.(check int) "final" 3 final;
  Alcotest.(check int) "actions" 4 (List.length actions);
  Alcotest.(check bool) "last is wait" true (List.nth actions 3 = Ex.Wait)

let test_trace_contents () =
  let g = ring 6 in
  let out =
    Sim.run ~record:true ~g ~max_rounds:10
      { Sim.start = 0; delay = 0; step = scripted [ Ex.Move 0; Ex.Move 0 ] }
      { Sim.start = 2; delay = 0; step = scripted [] }
  in
  match out.Sim.trace with
  | None -> Alcotest.fail "no trace"
  | Some t ->
      Alcotest.(check (list int)) "A positions" [ 1; 2 ] (Rv_sim.Trace.positions_a t);
      Alcotest.(check (list int)) "B positions" [ 2; 2 ] (Rv_sim.Trace.positions_b t);
      Alcotest.(check int) "A moves" 2 (Rv_sim.Trace.moves_in t `A);
      Alcotest.(check int) "B moves" 0 (Rv_sim.Trace.moves_in t `B)

let test_trace_ring_cap () =
  let mk round = { Rv_sim.Trace.round; pos_a = round; pos_b = 0; act_a = Ex.Wait;
                   act_b = Ex.Wait; crossed = false } in
  (* Bounded: keeps the most recent [cap] rounds, counts the evicted. *)
  let b = Rv_sim.Trace.Ring.create ~cap:3 in
  for r = 1 to 7 do Rv_sim.Trace.Ring.add b (mk r) done;
  Alcotest.(check int) "length capped" 3 (Rv_sim.Trace.Ring.length b);
  Alcotest.(check int) "dropped" 4 (Rv_sim.Trace.Ring.dropped b);
  Alcotest.(check (list int)) "most recent, chronological" [ 5; 6; 7 ]
    (List.map (fun (r : Rv_sim.Trace.round) -> r.Rv_sim.Trace.round)
       (Rv_sim.Trace.Ring.to_list b));
  (* Unbounded (cap <= 0): grows, never drops. *)
  let u = Rv_sim.Trace.Ring.create ~cap:0 in
  for r = 1 to 100 do Rv_sim.Trace.Ring.add u (mk r) done;
  Alcotest.(check int) "unbounded length" 100 (Rv_sim.Trace.Ring.length u);
  Alcotest.(check int) "unbounded never drops" 0 (Rv_sim.Trace.Ring.dropped u);
  (* Not yet full: chronological from the start. *)
  let p = Rv_sim.Trace.Ring.create ~cap:5 in
  Rv_sim.Trace.Ring.add p (mk 1);
  Rv_sim.Trace.Ring.add p (mk 2);
  Alcotest.(check (list int)) "partial" [ 1; 2 ]
    (List.map (fun (r : Rv_sim.Trace.round) -> r.Rv_sim.Trace.round)
       (Rv_sim.Trace.Ring.to_list p))

let test_trace_cap_in_run () =
  let g = ring 6 in
  let walker = { Sim.start = 0; delay = 0; step = scripted (List.init 8 (fun _ -> Ex.Move 0)) } in
  let sitter = { Sim.start = 3; delay = 0; step = scripted [] } in
  let out = Sim.run ~record:true ~trace_cap:2 ~g ~max_rounds:10 walker sitter in
  Alcotest.(check int) "only the last 2 rounds kept" 2
    (match out.Sim.trace with Some t -> List.length t | None -> -1);
  Alcotest.(check int) "evictions reported" 1 out.Sim.trace_dropped;
  let full = Sim.run ~record:true ~g ~max_rounds:10 walker sitter in
  Alcotest.(check int) "default cap keeps everything here" 0 full.Sim.trace_dropped;
  let off = Sim.run ~trace_cap:2 ~g ~max_rounds:10 walker sitter in
  Alcotest.(check bool) "no trace unless recording" true (off.Sim.trace = None)

let () =
  Alcotest.run "rv_sim"
    [
      ( "sim",
        [
          tc "basic meeting" test_basic_meeting;
          tc "crossing is not meeting" test_crossing_not_meeting;
          tc "crossing then meeting" test_crossing_then_meeting;
          tc "waiting model finds sleeper" test_waiting_model_finds_sleeper;
          tc "parachute protects sleeper" test_parachute_model_protects_sleeper;
          tc "parachute meeting after wake" test_parachute_meeting_after_wake;
          tc "validation" test_validation;
          tc "delay normalization" test_delay_normalization;
          tc "max rounds cap" test_max_rounds_cap;
          tc "cost accounting" test_cost_accounting;
          tc "time accessor" test_time_accessor;
          tc "time from later wake" test_time_from_later_wake;
          tc "solo" test_solo;
          tc "trace contents" test_trace_contents;
          tc "trace ring cap" test_trace_ring_cap;
          tc "trace_cap bounds a recorded run" test_trace_cap_in_run;
        ] );
    ]

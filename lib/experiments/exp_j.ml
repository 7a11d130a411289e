module Table = Rv_util.Table
module R = Rv_core.Rendezvous
module Sim = Rv_sim.Sim
module Sched = Rv_core.Schedule

let deterministic_row ?pool ~g ~n ~space name algorithm =
  let explorer ~start = ignore start; Rv_explore.Ring_walk.clockwise ~n in
  let pairs = Workload.sample_pairs ~space ~max_pairs:8 in
  match
    Workload.worst_for ?pool ~g ~algorithm ~space ~explorer ~pairs ~positions:`Fixed_first
      ~delays:[ (0, 0) ] ()
  with
  | Error msg -> [ name; "worst-case"; "FAIL: " ^ msg; "-"; "labels" ]
  | Ok (t, c) ->
      [ name; "worst-case"; string_of_int t; string_of_int c; "labels" ]

let oracle_row ~g ~n ~space =
  let explorer = Rv_explore.Ring_walk.clockwise ~n in
  let worst_t = ref 0 and worst_c = ref 0 in
  List.iter
    (fun (la, lb) ->
      for gap = 1 to n - 1 do
        let make mine other =
          Sched.to_instance
            (Rv_baselines.Oracle.schedule ~my_label:mine ~other_label:other ~explorer)
        in
        let out =
          Sim.run ~g ~max_rounds:(2 * n)
            { Sim.start = 0; delay = 0; step = make la lb }
            { Sim.start = gap; delay = 0; step = make lb la }
        in
        worst_t := max !worst_t (Sim.time out);
        worst_c := max !worst_c out.Sim.cost
      done)
    (Workload.sample_pairs ~space ~max_pairs:6);
  [
    "identity oracle";
    "worst-case";
    string_of_int !worst_t;
    string_of_int !worst_c;
    "knows both labels";
  ]

let token_row ~n =
  let worst_t = ref 0 and worst_c = ref 0 and ties = ref 0 in
  for gap = 1 to n - 1 do
    match Rv_baselines.Token_ring.run ~n ~start_a:0 ~start_b:gap with
    | Rv_baselines.Token_ring.Met m ->
        worst_t := max !worst_t m.round;
        worst_c := max !worst_c m.cost
    | Rv_baselines.Token_ring.Symmetric_tie -> incr ties
  done;
  [
    "token model (no labels)";
    (if !ties = 0 then "worst-case" else Printf.sprintf "worst-case (%d tie)" !ties);
    string_of_int !worst_t;
    string_of_int !worst_c;
    "marks its start node";
  ]

let random_walk_row ~g ~n =
  match
    Rv_baselines.Random_walk.measure ~g ~start_a:0 ~start_b:(n / 2) ~trials:200 ~seed:11
      ~max_rounds:(2000 * n)
  with
  | Error msg -> [ "random walk (no labels)"; "expected"; "FAIL: " ^ msg; "-"; "randomness" ]
  | Ok (t, c) ->
      [
        "random walk (no labels)";
        "expected";
        Printf.sprintf "%.0f (max %d)" t.Rv_util.Stats.mean t.Rv_util.Stats.max;
        Printf.sprintf "%.0f" c.Rv_util.Stats.mean;
        "randomness";
      ]

let table ?pool ?(n = 16) ?(space = 16) () =
  let g = Rv_graph.Ring.oriented n in
  let rows =
    [
      oracle_row ~g ~n ~space;
      deterministic_row ?pool ~g ~n ~space "cheap-sim" R.Cheap_simultaneous;
      deterministic_row ?pool ~g ~n ~space "fast-sim" R.Fast_simultaneous;
      token_row ~n;
      random_walk_row ~g ~n;
    ]
  in
  Table.make
    ~title:
      (Printf.sprintf
         "EXP-J: capability baselines around the model (oriented ring n=%d, E=%d, L=%d)" n
         (n - 1) space)
    ~headers:[ "agent capability"; "guarantee"; "time"; "cost"; "symmetry breaker" ]
    ~notes:
      [
        "The oracle shows the E floor; Cheap/Fast pay the L-dependent price of knowing";
        "nothing about the other agent; tokens trade labels for marking (with a tie";
        "failure on antipodal starts); random walks drop determinism altogether.";
      ]
    rows

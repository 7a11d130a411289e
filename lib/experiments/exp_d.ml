module R = Rv_core.Rendezvous
module Table = Rv_util.Table

let measure ?pool ~g ~n ~space algorithm =
  let explorer ~start =
    ignore start;
    Rv_explore.Ring_walk.clockwise ~n
  in
  let pairs = Workload.sample_pairs ~space ~max_pairs:8 in
  Workload.worst_for ?pool ~g ~algorithm ~space ~explorer ~pairs ~positions:`Fixed_first
    ~delays:[ (0, 0) ] ()

let table ?pool ?(n = 16) ?(space = 256) () =
  let g = Rv_graph.Ring.oriented n in
  let e = n - 1 in
  let log2_space = int_of_float (ceil (log (float_of_int space) /. log 2.0)) in
  let entries =
    [ ("cheap-sim (endpoint)", R.Cheap_simultaneous) ]
    @ List.init log2_space (fun i ->
          let w = i + 1 in
          let scheme = Rv_core.Relabel.scheme ~space ~weight:w in
          ( Printf.sprintf "fwr-sim w=%d (t=%d)" w scheme.Rv_core.Relabel.t,
            R.Fwr_simultaneous w ))
    @ [ ("fast-sim (endpoint)", R.Fast_simultaneous) ]
  in
  let rows =
    List.map
      (fun (label, algorithm) ->
        match measure ?pool ~g ~n ~space algorithm with
        | Error msg -> [ label; "FAIL: " ^ msg; "-"; "-"; "-" ]
        | Ok (t, c) ->
            [
              label;
              string_of_int t;
              Table.cell_float (float_of_int t /. float_of_int e);
              string_of_int c;
              Table.cell_float (float_of_int c /. float_of_int e);
            ])
      entries
  in
  Table.make
    ~title:
      (Printf.sprintf
         "EXP-D: the time/cost tradeoff curve via FastWithRelabeling (ring n=%d, E=%d, L=%d)"
         n e space)
    ~headers:[ "algorithm"; "worst time"; "time/E"; "worst cost"; "cost/E" ]
    ~notes:
      [
        "Simultaneous start.  Moving down the rows, time falls and cost rises:";
        "w=1 reproduces the Cheap end, w=log L approaches the Fast end, and";
        "intermediate w beats Cheap's Theta(EL) time at Theta(E) cost (Corollary 2.1).";
      ]
    rows

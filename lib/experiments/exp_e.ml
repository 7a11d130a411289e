module R = Rv_core.Rendezvous
module Table = Rv_util.Table

let worst_at_delay ?pool ~g ~n ~space ~labels:(la, lb) ~algorithm ~tau () =
  let explorer ~start =
    ignore start;
    Rv_explore.Ring_walk.clockwise ~n
  in
  Workload.worst_for ?pool ~g ~algorithm ~space ~explorer ~pairs:[ (la, lb) ]
    ~positions:`Fixed_first ~delays:[ (0, tau) ] ()

let table ?pool ?(n = 16) ?(space = 16) ?(labels = (3, 11)) () =
  let g = Rv_graph.Ring.oriented n in
  let e = n - 1 in
  let taus = [ 0; 1; e / 4; e / 2; (3 * e) / 4; e; e + 1; (3 * e) / 2; 2 * e; 3 * e ] in
  let taus = List.sort_uniq Int.compare taus in
  let rows =
    List.concat_map
      (fun tau ->
        List.filter_map
          (fun algorithm ->
            match worst_at_delay ?pool ~g ~n ~space ~labels ~algorithm ~tau () with
            | Error msg ->
                Some [ R.name algorithm; string_of_int tau; "FAIL: " ^ msg; "-"; "-" ]
            | Ok (t, c) ->
                Some
                  [
                    R.name algorithm;
                    string_of_int tau;
                    string_of_int t;
                    string_of_int c;
                    (if tau > e then "delayed regime (<= E expected)" else "");
                  ])
          [ R.Cheap; R.Fast ])
      taus
  in
  let la, lb = labels in
  Table.make
    ~title:
      (Printf.sprintf
         "EXP-E: time/cost vs wake-up delay tau (ring n=%d, E=%d, L=%d, labels %d vs %d)" n
         e space la lb)
    ~headers:[ "algorithm"; "tau"; "worst time"; "worst cost"; "regime" ]
    ~notes:
      [
        "Worst over all starting gaps; the later agent sleeps tau rounds.";
        "Past tau = E the earlier agent's first exploration finds the sleeping agent:";
        "both time and cost drop to at most E.";
      ]
    rows

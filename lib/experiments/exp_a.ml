module R = Rv_core.Rendezvous
module Table = Rv_util.Table

let algorithms = [ R.Cheap; R.Fast; R.Fwr 2; R.Fwr 3 ]

let row ?pool ~g ~n ~space algorithm =
  let e = n - 1 in
  let explorer ~start =
    ignore start;
    Rv_explore.Ring_walk.clockwise ~n
  in
  let pairs = Workload.sample_pairs ~space ~max_pairs:10 in
  let delays = Workload.ring_delays ~e in
  match
    Workload.worst_for ?pool ~g ~algorithm ~space ~explorer ~pairs ~positions:`Fixed_first
      ~delays ()
  with
  | Error msg -> [ R.name algorithm; string_of_int space; "FAIL: " ^ msg; "-"; "-"; "-"; "-"; "-" ]
  | Ok (t, c) ->
      let tb = R.proven_time_bound algorithm ~e ~space in
      let cb = R.proven_cost_bound algorithm ~e ~space in
      [
        R.name algorithm;
        string_of_int space;
        string_of_int t;
        string_of_int tb;
        Table.cell_ratio (float_of_int t) (float_of_int tb);
        string_of_int c;
        string_of_int cb;
        Table.cell_ratio (float_of_int c) (float_of_int cb);
      ]

let table ?pool ?(n = 24) ?(spaces = [ 4; 16; 64 ]) () =
  let g = Rv_graph.Ring.oriented n in
  let rows =
    List.concat_map (fun space -> List.map (row ?pool ~g ~n ~space) algorithms) spaces
  in
  Table.make
    ~title:
      (Printf.sprintf
         "EXP-A: worst-case time/cost vs proven bounds (oriented ring n=%d, E=%d)" n
         (n - 1))
    ~headers:[ "algorithm"; "L"; "time"; "time bound"; "t/bound"; "cost"; "cost bound"; "c/bound" ]
    ~notes:
      [
        "Worst over sampled label pairs, all start gaps, delays {0,1,E/2,E,E+1} both orders.";
        "Shape check: cheap cost stays O(E) while time grows with L; fast time and cost grow with log L.";
      ]
    rows

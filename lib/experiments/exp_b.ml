module R = Rv_core.Rendezvous
module Table = Rv_util.Table

let worst_time ?pool ~g ~n ~space () =
  let e = n - 1 in
  ignore e;
  let explorer ~start =
    ignore start;
    Rv_explore.Ring_walk.clockwise ~n
  in
  (* The worst pair for CheapSim maximizes the smaller label. *)
  let pairs = [ (space - 1, space); (1, space); (1, 2) ] in
  let pairs =
    List.filter (fun (a, b) -> a >= 1 && a < b) pairs
    |> List.sort_uniq Rv_util.Ord.(pair int int)
  in
  Workload.worst_for ?pool ~g ~algorithm:R.Cheap_simultaneous ~space ~explorer ~pairs
    ~positions:`Fixed_first ~delays:[ (0, 0) ] ()

let table ?pool ?(n = 16) ?(spaces = [ 2; 4; 8; 16; 32; 64 ]) () =
  let g = Rv_graph.Ring.oriented n in
  let e = n - 1 in
  let rows_and_points =
    List.map
      (fun space ->
        match worst_time ?pool ~g ~n ~space () with
        | Error msg -> ([ string_of_int space; "FAIL: " ^ msg; "-"; "-" ], None)
        | Ok (t, c) ->
            ( [
                string_of_int space;
                string_of_int t;
                Table.cell_float (float_of_int t /. float_of_int e);
                string_of_int c;
              ],
              Some (float_of_int space, float_of_int t) ))
      spaces
  in
  let rows = List.map fst rows_and_points in
  let points = List.filter_map snd rows_and_points in
  let slope_note =
    if List.length points >= 2 then begin
      let _, slope = Rv_util.Stats.linear_fit points in
      Printf.sprintf
        "Linear fit: worst time ~ %.2f * L rounds = %.2f * E * L (Theorem 3.1 predicts Omega(E L))."
        slope (slope /. float_of_int e)
    end
    else "Not enough points for a fit."
  in
  Table.make
    ~title:
      (Printf.sprintf "EXP-B: time of cost-E rendezvous vs L (cheap-sim, oriented ring n=%d, E=%d)" n e)
    ~headers:[ "L"; "worst time"; "time/E"; "worst cost" ]
    ~notes:[ slope_note; "Cost stays at E while time grows linearly in L: the Cheap end of the tradeoff." ]
    rows

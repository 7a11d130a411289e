module R = Rv_core.Rendezvous
module Table = Rv_util.Table

let adversarial_pairs ~space =
  (* Max-weight labels (all ones) maximize Fast's exploration count. *)
  let ones = Workload.all_ones_label ~space in
  let cands = [ (ones / 2, ones); (ones, space); (space - 1, space); (1, 2); (1, space) ] in
  List.filter (fun (a, b) -> a >= 1 && a < b && b <= space) cands
  |> List.sort_uniq Rv_util.Ord.(pair int int)

let worst ?pool ~g ~n ~space ~simultaneous () =
  let explorer ~start =
    ignore start;
    Rv_explore.Ring_walk.clockwise ~n
  in
  let algorithm = if simultaneous then R.Fast_simultaneous else R.Fast in
  let delays = if simultaneous then [ (0, 0) ] else Workload.ring_delays ~e:(n - 1) in
  Workload.worst_for ?pool ~g ~algorithm ~space ~explorer ~pairs:(adversarial_pairs ~space)
    ~positions:`Fixed_first ~delays ()

let table ?pool ?(n = 16) ?(spaces = [ 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]) () =
  let g = Rv_graph.Ring.oriented n in
  let e = n - 1 in
  let rows_and_points =
    List.map
      (fun space ->
        match worst ?pool ~g ~n ~space ~simultaneous:false () with
        | Error msg -> ([ string_of_int space; "FAIL: " ^ msg; "-"; "-"; "-" ], None)
        | Ok (t, c) ->
            ( [
                string_of_int space;
                string_of_int c;
                Table.cell_float (float_of_int c /. float_of_int e);
                string_of_int t;
                Table.cell_float (float_of_int t /. float_of_int e);
              ],
              Some (log (float_of_int space) /. log 2.0, float_of_int c) ))
      spaces
  in
  let rows = List.map fst rows_and_points in
  let points = List.filter_map snd rows_and_points in
  let note =
    if List.length points >= 2 then begin
      let _, slope = Rv_util.Stats.linear_fit points in
      Printf.sprintf
        "Linear fit in log2 L: worst cost ~ %.2f * log2 L rounds = %.2f * E * log2 L (Theorem 3.2 predicts Omega(E log L))."
        slope (slope /. float_of_int e)
    end
    else "Not enough points for a fit."
  in
  Table.make
    ~title:
      (Printf.sprintf "EXP-C: cost of O(E log L)-time rendezvous vs L (fast, oriented ring n=%d, E=%d)" n e)
    ~headers:[ "L"; "worst cost"; "cost/E"; "worst time"; "time/E" ]
    ~notes:[ note ]
    rows

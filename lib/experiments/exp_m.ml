module Table = Rv_util.Table
module Gather = Rv_sim.Gather

let run_gathering ~n ~k =
  let g = Rv_graph.Ring.oriented n in
  let explorer = Rv_explore.Ring_walk.clockwise ~n in
  let agents =
    List.init k (fun i ->
        let label = i + 1 in
        {
          Gather.name = Printf.sprintf "a%d" label;
          label;
          start = i * n / k;
          step =
            Rv_core.Schedule.to_instance
              (Rv_core.Cheap.schedule_simultaneous ~label ~explorer);
        })
  in
  Gather.run ~g ~max_rounds:(4 * k * n) agents

let table ?(n = 32) ?(ks = [ 2; 4; 8; 16 ]) () =
  let e = n - 1 in
  let rows =
    List.map
      (fun k ->
        let out = run_gathering ~n ~k in
        match out.Gather.gathered_round with
        | None -> [ string_of_int k; "FAIL: no gathering"; "-"; "-"; "-" ]
        | Some r ->
            [
              string_of_int k;
              string_of_int r;
              Table.cell_float (float_of_int r /. float_of_int e);
              string_of_int out.Gather.total_cost;
              Table.cell_float
                (float_of_int out.Gather.total_cost /. float_of_int (k * e));
            ])
      ks
  in
  Table.make
    ~title:
      (Printf.sprintf
         "EXP-M: gathering k agents with merge-on-meet cheap-sim (ring n=%d, E=%d)" n e)
    ~headers:[ "k"; "gathered round"; "round/E"; "total cost"; "cost/(kE)" ]
    ~notes:
      [
        "Label 1's single exploration collects everyone: the gathered round stays";
        "below E regardless of k, and the cost grows linearly in k (each collected";
        "agent rides with the leader) -- time O(E), cost O(kE).";
      ]
    rows

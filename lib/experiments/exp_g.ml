module Table = Rv_util.Table
module LB = Rv_lowerbound

let table_progress ?(n = 24) ?(spaces = [ 4; 8; 16; 32; 64 ]) () =
  let rows =
    List.map
      (fun space ->
        let vectors = LB.Theorem_cheap.fast_sim_vectors ~n ~space in
        match LB.Theorem_fast.analyze ~n ~vectors with
        | Error msg -> [ string_of_int space; "FAIL: " ^ msg; "-"; "-"; "-"; "-"; "-" ]
        | Ok r ->
            let worst_solo =
              List.fold_left
                (fun acc (a : LB.Theorem_fast.agent_report) -> max acc a.solo_cost)
                0 r.LB.Theorem_fast.agents
            in
            [
              string_of_int space;
              string_of_int r.LB.Theorem_fast.max_nonzero;
              Table.cell_float
                (float_of_int r.LB.Theorem_fast.max_nonzero
                /. (log (float_of_int space) /. log 2.0));
              string_of_int r.LB.Theorem_fast.guaranteed_nonzero;
              string_of_int r.LB.Theorem_fast.min_implied_cost_of_max;
              string_of_int worst_solo;
              (if r.LB.Theorem_fast.distinct_progress then "yes" else "NO");
            ])
      spaces
  in
  Table.make
    ~title:
      (Printf.sprintf
         "EXP-G(i): progress-vector weight of Fast vs L (Theorem 3.2 pipeline, ring n=%d)" n)
    ~headers:
      [ "L"; "max nonzero"; "nonzero/log2 L"; "guaranteed (Fact 3.16)"; "implied cost (k*E/6)";
        "measured solo cost"; "progress distinct" ]
    ~notes:
      [
        "Fact 3.15 forces distinct progress vectors; Fact 3.16's counting bound";
        "('guaranteed') then forces non-zero entries on the largest pigeonhole";
        "group; Fact 3.17 converts each significant pair into E/6 traversals.";
        "Measured weight must dominate the guarantee; implied cost must stay";
        "below the measured solo cost.  At these L the exact counting bound is";
        "weak (the asymptotic argument needs L exponential in the block count);";
        "the measured weights show the Omega(log L) growth directly.";
      ]
    rows

let table_chain ?(n = 24) ?(spaces = [ 4; 8; 16; 32 ]) () =
  let rows =
    List.map
      (fun space ->
        let vectors = LB.Theorem_cheap.cheap_sim_vectors ~n ~space in
        match LB.Theorem_cheap.analyze ~n ~vectors with
        | Error msg ->
            [ string_of_int space; "FAIL: " ^ msg; "-"; "-"; "-"; "-"; "-"; "-"; "-" ]
        | Ok r ->
            let ok = function Ok () -> "yes" | Error _ -> "NO" in
            [
              string_of_int space;
              string_of_int (List.length r.LB.Theorem_cheap.chain);
              (if r.LB.Theorem_cheap.chain_monotone then "yes" else "NO");
              Table.cell_float r.LB.Theorem_cheap.slope;
              Table.cell_float r.LB.Theorem_cheap.predicted_slope;
              string_of_int r.LB.Theorem_cheap.last_duration;
              string_of_int r.LB.Theorem_cheap.fact_3_5_violations;
              ok r.LB.Theorem_cheap.fact_3_6;
              ok r.LB.Theorem_cheap.fact_3_8;
            ])
      spaces
  in
  Table.make
    ~title:
      (Printf.sprintf
         "EXP-G(ii): eager-chain growth for cost-E Cheap (Theorem 3.1 pipeline, ring n=%d)" n)
    ~headers:
      [ "L"; "chain length"; "monotone"; "slope"; "predicted >= (F-3phi)/2"; "last |alpha|";
        "Fact 3.5 violations"; "Fact 3.6"; "Fact 3.8" ]
    ~notes:
      [
        "Execution times along the tournament's Hamiltonian path must grow";
        "strictly (Fact 3.7) with per-step increments >= (F - 3 phi)/2 (Fact 3.8),";
        "forcing the last execution to Omega(E L) rounds.";
      ]
    rows

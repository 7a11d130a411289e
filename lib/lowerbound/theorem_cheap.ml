type report = {
  n : int;
  labels : int;
  phi : int;
  max_pair_cost : int;
  fact_3_5_violations : int;
  chain : Tournament.chain_step list;
  chain_monotone : bool;
  slope : float;
  predicted_slope : float;
  last_duration : int;
  fact_3_6 : (unit, string) result;
  fact_3_8 : (unit, string) result;
}

let vectors_of ~n ~space algorithm =
  let explorer = Rv_explore.Ring_walk.clockwise ~n in
  Array.init space (fun i ->
      let label = i + 1 in
      let sched =
        Rv_core.Rendezvous.schedule algorithm ~space ~label ~explorer
      in
      (label, Behaviour.of_schedule ~n sched))

let cheap_sim_vectors ~n ~space =
  vectors_of ~n ~space Rv_core.Rendezvous.Cheap_simultaneous

let fast_sim_vectors ~n ~space =
  vectors_of ~n ~space Rv_core.Rendezvous.Fast_simultaneous

let analyze ~n ~vectors =
  let labels = Array.map fst vectors in
  let vecs = Array.map snd vectors in
  match Trim.run ~n ~labels ~vectors:vecs with
  | Error e -> Error e
  | Ok trim ->
      let e_bound = n - 1 in
      (* phi: worst pairwise combined cost over all gaps minus E would be
         the literal o(E) slack; the tournament executions at gap F are the
         ones the proof uses, so measure over those plus the solo costs. *)
      let t = Tournament.build trim in
      let max_pair_cost =
        List.fold_left
          (fun acc (edge : Tournament.edge_report) ->
            let ca =
              Ring_model.cost_until (Trim.vector trim ~label:edge.Tournament.a)
                ~round:edge.Tournament.meeting
            in
            let cb =
              Ring_model.cost_until (Trim.vector trim ~label:edge.Tournament.b)
                ~round:edge.Tournament.meeting
            in
            max acc (ca + cb))
          0 t.Tournament.edges
      in
      let phi = max 0 (max_pair_cost - e_bound) in
      let path = Tournament.hamiltonian_path t in
      let chain = Tournament.chain t path in
      let durations = List.map (fun (s : Tournament.chain_step) -> s.duration) chain in
      let chain_monotone =
        let rec check = function
          | a :: (b :: _ as rest) -> a < b && check rest
          | [ _ ] | [] -> true
        in
        check durations
      in
      let slope =
        if List.length chain < 2 then 0.0
        else
          let points =
            List.map
              (fun (s : Tournament.chain_step) ->
                (float_of_int s.index, float_of_int s.duration))
              chain
          in
          snd (Rv_util.Stats.linear_fit points)
      in
      let f = float_of_int t.Tournament.f in
      let predicted_slope = (f -. (3.0 *. float_of_int phi)) /. 2.0 in
      let last_duration =
        List.fold_left (fun _ (s : Tournament.chain_step) -> s.duration) 0 chain
      in
      Ok
        {
          n;
          labels = Array.length labels;
          phi;
          max_pair_cost;
          fact_3_5_violations = t.Tournament.fact_3_5_violations;
          chain;
          chain_monotone;
          slope;
          predicted_slope;
          last_duration;
          fact_3_6 = Tournament.check_fact_3_6 t ~phi chain;
          fact_3_8 = Tournament.check_fact_3_8 t ~phi chain;
        }

module Ex = Rv_explore.Explorer
module Sim = Rv_sim.Sim

type algorithm =
  | Cheap
  | Cheap_simultaneous
  | Fast
  | Fast_simultaneous
  | Fwr of int
  | Fwr_simultaneous of int

let name = function
  | Cheap -> "cheap"
  | Cheap_simultaneous -> "cheap-sim"
  | Fast -> "fast"
  | Fast_simultaneous -> "fast-sim"
  | Fwr w -> Printf.sprintf "fwr(w=%d)" w
  | Fwr_simultaneous w -> Printf.sprintf "fwr-sim(w=%d)" w

let delay_tolerant = function
  | Cheap | Fast | Fwr _ -> true
  | Cheap_simultaneous | Fast_simultaneous | Fwr_simultaneous _ -> false

type party = { label : Label.t; start : int; delay : int }

let schedule algorithm ~space ~label ~explorer =
  Label.check ~space label;
  match algorithm with
  | Cheap -> Cheap.schedule ~label ~explorer
  | Cheap_simultaneous -> Cheap.schedule_simultaneous ~label ~explorer
  | Fast -> Fast.schedule ~label ~explorer
  | Fast_simultaneous -> Fast.schedule_simultaneous ~label ~explorer
  | Fwr w ->
      let scheme = Relabel.scheme ~space ~weight:w in
      Fwr.schedule ~scheme ~label ~explorer
  | Fwr_simultaneous w ->
      let scheme = Relabel.scheme ~space ~weight:w in
      Fwr.schedule_simultaneous ~scheme ~label ~explorer

let proven_time_bound algorithm ~e ~space =
  match algorithm with
  | Cheap -> Bounds.cheap_time ~e ~space
  | Cheap_simultaneous -> Bounds.cheap_sim_time_pair ~e ~smaller_label:space
  | Fast | Fast_simultaneous -> Bounds.fast_time ~e ~space
  | Fwr w | Fwr_simultaneous w ->
      Bounds.fwr_time ~e ~scheme:(Relabel.scheme ~space ~weight:w)

let proven_cost_bound algorithm ~e ~space =
  match algorithm with
  | Cheap -> Bounds.cheap_cost e
  | Cheap_simultaneous -> Bounds.cheap_sim_cost e
  | Fast | Fast_simultaneous -> Bounds.fast_cost ~e ~space
  | Fwr w -> Bounds.fwr_cost_general ~e ~scheme:(Relabel.scheme ~space ~weight:w)
  | Fwr_simultaneous w -> Bounds.fwr_sim_cost ~e ~scheme:(Relabel.scheme ~space ~weight:w)

let check_parties ~n ~space pa pb =
  let check name p =
    if p.label < 1 || p.label > space then
      Error (Printf.sprintf "agent %s: label %d is outside 1..%d" name p.label space)
    else if p.start < 0 || p.start >= n then
      Error (Printf.sprintf "agent %s: start %d is not a node (0..%d)" name p.start (n - 1))
    else if p.delay < 0 then Error (Printf.sprintf "agent %s: delay %d is negative" name p.delay)
    else Ok ()
  in
  Result.bind (check "A" pa) (fun () ->
      Result.bind (check "B" pb) (fun () ->
          if pa.label = pb.label then
            Error (Printf.sprintf "agents A and B have the same label %d" pa.label)
          else if pa.start = pb.start then
            Error (Printf.sprintf "agents A and B start at the same node %d" pa.start)
          else Ok ()))

let run ?model ?record ?trace_cap ?max_rounds ~g ~explorer ~algorithm ~space pa pb =
  if pa.label = pb.label then invalid_arg "Rendezvous.run: labels must be distinct";
  let ex_a = explorer ~start:pa.start and ex_b = explorer ~start:pb.start in
  if ex_a.Ex.bound <> ex_b.Ex.bound then
    invalid_arg "Rendezvous.run: the two agents' explorers declare different bounds E";
  let sched_a = schedule algorithm ~space ~label:pa.label ~explorer:ex_a in
  let sched_b = schedule algorithm ~space ~label:pb.label ~explorer:ex_b in
  let max_rounds =
    match max_rounds with
    | Some m -> m
    | None ->
        max (Schedule.duration sched_a + pa.delay) (Schedule.duration sched_b + pb.delay)
        + 1
  in
  Sim.run ?model ?record ?trace_cap ~g ~max_rounds
    { Sim.start = pa.start; delay = pa.delay; step = Schedule.to_instance sched_a }
    { Sim.start = pb.start; delay = pb.delay; step = Schedule.to_instance sched_b }

module R = Rv_core.Rendezvous
module Table = Rv_util.Table
module Sched = Rv_core.Schedule
module Sim = Rv_sim.Sim

(* Sweep a pair of explicit schedules over gaps and small delays. *)
let worst_schedules ~g ~sched_a ~sched_b ~delays =
  let n = Rv_graph.Port_graph.n g in
  let max_rounds =
    max (Sched.duration sched_a) (Sched.duration sched_b)
    + List.fold_left (fun acc (a, b) -> max acc (max a b)) 0 delays
    + 1
  in
  let worst_t = ref 0 and worst_c = ref 0 and failed = ref None in
  List.iter
    (fun gap ->
      List.iter
        (fun (da, db) ->
          if !failed = None then begin
            let out =
              Sim.run ~g ~max_rounds
                { Sim.start = 0; delay = da; step = Sched.to_instance sched_a }
                { Sim.start = gap; delay = db; step = Sched.to_instance sched_b }
            in
            match out.Sim.meeting_round with
            | Some t ->
                worst_t := max !worst_t t;
                worst_c := max !worst_c out.Sim.cost
            | None -> failed := Some (Printf.sprintf "gap %d delays %d/%d" gap da db)
          end)
        delays)
    (List.init (n - 1) (fun i -> i + 1));
  match !failed with None -> Ok (!worst_t, !worst_c) | Some e -> Error e

let measure ~n ~space ~variant =
  let g = Rv_graph.Ring.oriented n in
  let explorer = Rv_explore.Ring_walk.clockwise ~n in
  let iterations = Rv_core.Unknown_e.iterations_needed ~n in
  let family = Rv_core.Unknown_e.ring_explorer_family ~iterations in
  let delays = [ (0, 0); (0, 1) ] in
  let pairs = Workload.sample_pairs ~space ~max_pairs:4 in
  let known label =
    match variant with
    | `Cheap -> Rv_core.Cheap.schedule ~label ~explorer
    | `Fast -> Rv_core.Fast.schedule ~label ~explorer
  in
  let unknown label =
    match variant with
    | `Cheap -> Rv_core.Unknown_e.cheap ~space ~label ~explorers:family
    | `Fast -> Rv_core.Unknown_e.fast ~space ~label ~explorers:family
  in
  let sweep make =
    let rec go acc_t acc_c = function
      | [] -> Ok (acc_t, acc_c)
      | (la, lb) :: rest -> (
          match worst_schedules ~g ~sched_a:(make la) ~sched_b:(make lb) ~delays with
          | Ok (t, c) -> go (max acc_t t) (max acc_c c) rest
          | Error e -> Error e)
    in
    go 0 0 pairs
  in
  (sweep known, sweep unknown)

let table ?(sizes = [ 8; 16; 32; 64 ]) ?(space = 8) () =
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun (vname, variant) ->
            match measure ~n ~space ~variant with
            | Ok (kt, kc), Ok (ut, uc) ->
                [
                  vname;
                  string_of_int n;
                  string_of_int kt;
                  string_of_int ut;
                  Table.cell_ratio (float_of_int ut) (float_of_int kt);
                  string_of_int kc;
                  string_of_int uc;
                  Table.cell_ratio (float_of_int uc) (float_of_int kc);
                ]
            | Error e, _ | _, Error e ->
                [ vname; string_of_int n; "FAIL: " ^ e; "-"; "-"; "-"; "-"; "-" ])
          [ ("cheap", `Cheap); ("fast", `Fast) ])
      sizes
  in
  Table.make
    ~title:
      (Printf.sprintf
         "EXP-H: iterated doubling (unknown E) vs known E on oriented rings (L=%d)" space)
    ~headers:
      [ "algorithm"; "n"; "time (known E)"; "time (unknown)"; "ratio"; "cost (known E)"; "cost (unknown)"; "ratio" ]
    ~notes:
      [
        "Unknown-E agents iterate with E_i = 2^i - 1, iterations padded to a";
        "label-independent duration (see Unknown_e); the telescoping argument";
        "predicts bounded overhead ratios as n grows.";
      ]
    rows

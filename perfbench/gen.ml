(* Seeded input generators.  Every input the program sees is a pure
   function of (workload, seed, index): the label-pair set of each sweep,
   the serve-hot request set with its bake, and the serve-cold stream. *)

module Rng = Rv_util.Rng
module Key = Rv_index.Key
module Json = Rv_obs.Json

let stream ~workload ~seed k = Rng.create ~seed:(Hashtbl.hash (workload, seed, k))

(* --- sweeps ------------------------------------------------------------- *)

let sweep_delays = [ (0, 0); (0, 1); (0, 8); (1, 0); (8, 0) ]

(* The adversarial picks [Workload.sample_pairs] always includes (small,
   extreme and all-ones labels).  Both sweep spaces (128 and 32) have
   exactly six distinct picks, so [max_pairs:6] returns them and nothing
   drawn from its own fixed seed. *)
let extremes ~space = Rv_experiments.Workload.sample_pairs ~space ~max_pairs:6

let sweep_pairs ~workload ~seed ~sweep ~space ~n =
  let fixed = extremes ~space in
  let rng = stream ~workload ~seed sweep in
  let rec draw acc k =
    if k = 0 then List.rev acc
    else
      let a = Rng.int_in rng 1 space and b = Rng.int_in rng 1 space in
      let p = (min a b, max a b) in
      if a = b || List.mem p acc || List.mem p fixed then draw acc k
      else draw (p :: acc) (k - 1)
  in
  fixed @ draw [] (n - List.length fixed)

(* --- serving ------------------------------------------------------------ *)

let shapes table =
  String.split_on_char ';' table
  |> List.filter (fun s -> s <> "")
  |> List.map (fun s ->
         match String.split_on_char ' ' s with
         | [ g; a; space; pairs ] -> (g, a, int_of_string space, int_of_string pairs)
         | _ -> invalid_arg ("Gen.shapes: " ^ s))
  |> Array.of_list

let cold_shapes = shapes Shapes.cold
let cheap_shapes = shapes Shapes.cheap

let worst (g, a, space, pairs) ~max_delay =
  Key.Worst
    {
      Key.w_graph = g;
      w_algorithm = a;
      w_explorer = "auto";
      w_space = space;
      w_max_pairs = pairs;
      w_max_delay = max_delay;
    }

(* The request object without its id, e.g. {"type":"worst",...}. *)
let body = function
  | Key.Worst w ->
      Json.to_string
        (Json.Obj
           [
             ("type", Json.Str "worst");
             ("graph", Json.Str w.Key.w_graph);
             ("algorithm", Json.Str w.Key.w_algorithm);
             ("explorer", Json.Str w.Key.w_explorer);
             ("space", Json.Int w.Key.w_space);
             ("pairs", Json.Int w.Key.w_max_pairs);
             ("max_delay", Json.Int w.Key.w_max_delay);
           ])
  | Key.Run r ->
      Json.to_string
        (Json.Obj
           [
             ("type", Json.Str "run");
             ("graph", Json.Str r.Key.r_graph);
             ("algorithm", Json.Str r.Key.r_algorithm);
             ("explorer", Json.Str r.Key.r_explorer);
             ("space", Json.Int r.Key.r_space);
             ("label_a", Json.Int r.Key.r_label_a);
             ("label_b", Json.Int r.Key.r_label_b);
             ("start_a", Json.Int r.Key.r_start_a);
             ("start_b", Json.Int r.Key.r_start_b);
             ("delay_a", Json.Int r.Key.r_delay_a);
             ("delay_b", Json.Int r.Key.r_delay_b);
             ("model", Json.Str (if r.Key.r_parachute then "parachute" else "waiting"));
           ])

(* One wire line: the body with the id (and the debug flag) spliced in
   front of its first field. *)
let line ?(debug = false) ~id body =
  Printf.sprintf "{\"id\":%d,%s%s\n" id
    (if debug then "\"debug\":true," else "")
    (String.sub body 1 (String.length body - 1))

(* Index filler: every cheap shape at max_delay 0, a key no hot or cold
   query uses (those have max_delay >= 1). *)
let filler () = Array.to_list (Array.map (worst ~max_delay:0) cheap_shapes)

let run_graphs = [| "ring:12"; "ring:20"; "torus:4x4"; "torus:5x5"; "hypercube:4"; "grid:4x4" |]
let run_algorithms = [| "cheap"; "fast"; "fwr:2"; "fwr:3" |]
let run_nodes = [| 12; 20; 16; 25; 16; 16 |]

let hot_size = 64

(* The hot set: [hot_size] distinct queries, worst and run alternating.
   The worst queries (even positions) are baked into the index; the LRU
   answers the run queries after the warm-up lap computes them.  (Putting
   worst queries in the LRU half made the server's heap peak depend on
   which ones a seed drew: spread 21% over ten seeds, against 0.4%.) *)
let hot_set ~seed =
  let rng = stream ~workload:"serve-hot" ~seed 0 in
  let seen = Hashtbl.create 128 in
  let rec pick i acc =
    if i = hot_size then Array.of_list (List.rev acc)
    else
      let q =
        if i mod 2 = 0 then
          worst (Rng.choose rng cheap_shapes) ~max_delay:(Rng.int_in rng 1 48)
        else
          let gi = Rng.int rng (Array.length run_graphs) in
          let space = Rng.choose rng [| 8; 16; 32 |] in
          let la = Rng.int_in rng 1 space in
          let lb = 1 + ((la + Rng.int_in rng 0 (space - 2)) mod space) in
          Key.Run
            {
              Key.r_graph = run_graphs.(gi);
              r_algorithm = Rng.choose rng run_algorithms;
              r_explorer = "auto";
              r_space = space;
              r_label_a = la;
              r_label_b = lb;
              r_start_a = Rng.int rng run_nodes.(gi);
              r_start_b = -1;
              r_delay_a = Rng.int_in rng 0 8;
              r_delay_b = Rng.int_in rng 0 8;
              r_parachute = Rng.bool rng;
            }
      in
      let k = Key.render q in
      if Hashtbl.mem seen k then pick i acc
      else begin
        Hashtbl.add seen k ();
        pick (i + 1) (q :: acc)
      end
  in
  pick 0 []

let baked i = i mod 2 = 0

(* The serve-cold stream: position [i] is the (lap, j) cell of a seeded
   permutation of the cold shapes x max_delay 1..48, with max_delay
   shifted by 48 per lap.  Distinct positions are distinct (shape,
   max_delay) cells, so keys never repeat, and none is a hot or filler
   key (different shapes, or max_delay 0). *)
let cold_delays = 48

let cold_lap_size = Array.length cold_shapes * cold_delays

type cold = { mutable perms : int array array; seed : int }

let cold_stream ~seed = { perms = [||]; seed }

let cold_query c i =
  let lap = i / cold_lap_size and j = i mod cold_lap_size in
  while Array.length c.perms <= lap do
    let n = Array.length c.perms in
    c.perms <-
      Array.append c.perms
        [| Rng.permutation (stream ~workload:"serve-cold" ~seed:c.seed n) cold_lap_size |]
  done;
  let cell = c.perms.(lap).(j) in
  let shape = cold_shapes.(cell mod Array.length cold_shapes) in
  worst shape ~max_delay:(1 + (cell / Array.length cold_shapes) + (cold_delays * lap))

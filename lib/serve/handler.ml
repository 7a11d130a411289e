module Json = Rv_obs.Json
module R = Rv_core.Rendezvous
module Spec = Rv_experiments.Spec
module W = Rv_experiments.Workload

(* Successful evaluations are represented as plain integers first
   ([vals]) and rendered to response fields second ([fields_of_vals]).
   The split is what keeps the three serve paths byte-identical: direct
   compute, the LRU cache and the baked index all end at the same
   printer — the index merely round-trips the integers through
   [values_of_vals]/[vals_of_values] on the way. *)

type worst_vals = {
  wv_pairs_swept : int;
  wv_delays_swept : int;
  wv_e : int;
  wv_time : int;
  wv_cost : int;
  wv_proven_time : int;
  wv_proven_cost : int;
}

type run_vals = {
  rv_start_b : int;  (** antipode resolved *)
  rv_met : bool;
  rv_time : int;
  rv_meeting_node : int option;
  rv_cost : int;
  rv_cost_a : int;
  rv_cost_b : int;
  rv_crossings : int;
  rv_rounds_run : int;
  rv_proven_time : int;
  rv_proven_cost : int;
}

type vals = Worst_vals of worst_vals | Run_vals of run_vals

let past_deadline = function
  | None -> false
  | Some d -> Clock.now_us () > d

(* [file:] graph specs read local paths; refuse them at the serving
   boundary no matter what the Spec layer accepts interactively. *)
let guard_graph spec =
  if String.length spec >= 5 && String.equal (String.sub spec 0 5) "file:" then
    Error "file: graphs are not served (remote requests cannot name local paths)"
  else Spec.parse_graph spec

let parse_specs ~graph ~explorer ~algorithm k =
  match guard_graph graph with
  | Error e -> Error (Proto.Bad_request, "graph: " ^ e, [])
  | Ok gs -> (
      match Spec.parse_explorer gs explorer with
      | Error e -> Error (Proto.Bad_request, "explorer: " ^ e, [])
      | Ok ex -> (
          match Spec.parse_algorithm algorithm with
          | Error e -> Error (Proto.Bad_request, "algorithm: " ^ e, [])
          | Ok algo -> k gs ex algo))

(* --- worst ------------------------------------------------------------- *)

let eval_worst ?pool ~deadline_us (w : Proto.worst_q) =
  parse_specs ~graph:w.Proto.w_graph ~explorer:w.Proto.w_explorer
    ~algorithm:w.Proto.w_algorithm
  @@ fun gs ex algorithm ->
  let space = w.Proto.w_space in
  let e = W.e_of ex in
  let delays = W.sampled_delays algorithm ~max_delay:w.Proto.w_max_delay in
  let pairs = Array.of_list (W.sample_pairs ~space ~max_pairs:w.Proto.w_max_pairs) in
  let total = Array.length pairs in
  let progress i wt wc =
    [
      ("pairs_done", Json.Int i);
      ("pairs_total", Json.Int total);
      ("partial_time", Json.Int wt);
      ("partial_cost", Json.Int wc);
    ]
  in
  (* With a deadline, one [worst_for] call per label pair: the deadline
     is re-checked at every pair boundary, so a long sweep degrades into
     a partial answer instead of holding a worker hostage.  Without one,
     a single call over all pairs lets the pool fan out (one task per
     pair).  The worst over pairs is order-insensitive, so the chunking
     cannot change the result. *)
  let chunk = if Option.is_some deadline_us then 1 else max 1 total in
  let rec sweep i wt wc =
    if i >= total then
      Ok
        (Worst_vals
           {
             wv_pairs_swept = total;
             wv_delays_swept = List.length delays;
             wv_e = e;
             wv_time = wt;
             wv_cost = wc;
             wv_proven_time = R.proven_time_bound algorithm ~e ~space;
             wv_proven_cost = R.proven_cost_bound algorithm ~e ~space;
           })
    else if past_deadline deadline_us then
      Error
        ( Proto.Deadline_exceeded,
          Printf.sprintf "deadline exceeded after %d of %d label pairs" i total,
          progress i wt wc )
    else begin
      let len = min chunk (total - i) in
      match
        W.worst_for ?pool ~graph_spec:w.Proto.w_graph ~g:gs.Spec.g ~algorithm
          ~space ~explorer:ex
          ~pairs:(Array.to_list (Array.sub pairs i len))
          ~positions:`Fixed_first ~delays ()
      with
      | Error msg -> Error (Proto.Failed_rendezvous, msg, progress i wt wc)
      | Ok (t, c) -> sweep (i + len) (max wt t) (max wc c)
    end
  in
  sweep 0 0 0

(* --- run --------------------------------------------------------------- *)

let eval_run ~deadline_us (r : Proto.run_q) =
  parse_specs ~graph:r.Proto.r_graph ~explorer:r.Proto.r_explorer
    ~algorithm:r.Proto.r_algorithm
  @@ fun gs ex algorithm ->
  if past_deadline deadline_us then
    Error (Proto.Deadline_exceeded, "deadline exceeded before simulation", [])
  else begin
    let n = Rv_graph.Port_graph.n gs.Spec.g in
    let space = r.Proto.r_space in
    let start_b =
      if r.Proto.r_start_b < 0 then (r.Proto.r_start_a + (n / 2)) mod n
      else r.Proto.r_start_b
    in
    let model = if r.Proto.r_parachute then Rv_sim.Sim.Parachute else Rv_sim.Sim.Waiting in
    let out =
      R.run ~model ~g:gs.Spec.g ~explorer:ex ~algorithm ~space
        { R.label = r.Proto.r_label_a; start = r.Proto.r_start_a; delay = r.Proto.r_delay_a }
        { R.label = r.Proto.r_label_b; start = start_b; delay = r.Proto.r_delay_b }
    in
    let e = W.e_of ex in
    Ok
      (Run_vals
         {
           rv_start_b = start_b;
           rv_met = out.Rv_sim.Sim.met;
           rv_time =
             (match out.Rv_sim.Sim.meeting_round with
             | Some t -> t
             | None -> out.Rv_sim.Sim.rounds_run);
           rv_meeting_node = out.Rv_sim.Sim.meeting_node;
           rv_cost = out.Rv_sim.Sim.cost;
           rv_cost_a = out.Rv_sim.Sim.cost_a;
           rv_cost_b = out.Rv_sim.Sim.cost_b;
           rv_crossings = out.Rv_sim.Sim.crossings;
           rv_rounds_run = out.Rv_sim.Sim.rounds_run;
           rv_proven_time = R.proven_time_bound algorithm ~e ~space;
           rv_proven_cost = R.proven_cost_bound algorithm ~e ~space;
         })
  end

(* --- the one printer ---------------------------------------------------- *)

let fields_of_vals (q : Proto.query) (v : vals) =
  match (q, v) with
  | Proto.Worst w, Worst_vals wv ->
      [
        ("status", Json.Str "ok");
        ("type", Json.Str "worst");
        ("graph", Json.Str w.Proto.w_graph);
        ("algorithm", Json.Str w.Proto.w_algorithm);
        ("explorer", Json.Str w.Proto.w_explorer);
        ("space", Json.Int w.Proto.w_space);
        ("pairs_swept", Json.Int wv.wv_pairs_swept);
        ("delays_swept", Json.Int wv.wv_delays_swept);
        ("e", Json.Int wv.wv_e);
        ("time", Json.Int wv.wv_time);
        ("cost", Json.Int wv.wv_cost);
        ("proven_time", Json.Int wv.wv_proven_time);
        ("proven_cost", Json.Int wv.wv_proven_cost);
      ]
  | Proto.Run r, Run_vals rv ->
      [
        ("status", Json.Str "ok");
        ("type", Json.Str "run");
        ("graph", Json.Str r.Proto.r_graph);
        ("algorithm", Json.Str r.Proto.r_algorithm);
        ("explorer", Json.Str r.Proto.r_explorer);
        ("space", Json.Int r.Proto.r_space);
        ("label_a", Json.Int r.Proto.r_label_a);
        ("label_b", Json.Int r.Proto.r_label_b);
        ("start_a", Json.Int r.Proto.r_start_a);
        ("start_b", Json.Int rv.rv_start_b);
        ("delay_a", Json.Int r.Proto.r_delay_a);
        ("delay_b", Json.Int r.Proto.r_delay_b);
        ("model", Json.Str (if r.Proto.r_parachute then "parachute" else "waiting"));
        ("met", Json.Bool rv.rv_met);
        ("time", Json.Int rv.rv_time);
        ( "meeting_node",
          match rv.rv_meeting_node with
          | Some node -> Json.Int node
          | None -> Json.Null );
        ("cost", Json.Int rv.rv_cost);
        ("cost_a", Json.Int rv.rv_cost_a);
        ("cost_b", Json.Int rv.rv_cost_b);
        ("crossings", Json.Int rv.rv_crossings);
        ("rounds_run", Json.Int rv.rv_rounds_run);
        ("proven_time", Json.Int rv.rv_proven_time);
        ("proven_cost", Json.Int rv.rv_proven_cost);
      ]
  | Proto.Worst _, Run_vals _ | Proto.Run _, Worst_vals _ ->
      invalid_arg "Handler.fields_of_vals: query/vals kind mismatch"

(* --- index value codec -------------------------------------------------- *)

(* Fixed-width integer encoding for index records.  Slot 0 is a kind
   tag; a record whose tag disagrees with the query shape decodes to
   [None] and the caller falls back to simulation — a stale or
   mis-keyed record can cost a cache miss but never a wrong answer. *)

let values_width = 13
let tag_worst = 1
let tag_run = 2

let values_of_vals = function
  | Worst_vals wv ->
      [|
        tag_worst;
        wv.wv_pairs_swept;
        wv.wv_delays_swept;
        wv.wv_e;
        wv.wv_time;
        wv.wv_cost;
        wv.wv_proven_time;
        wv.wv_proven_cost;
        0;
        0;
        0;
        0;
        0;
      |]
  | Run_vals rv ->
      [|
        tag_run;
        rv.rv_start_b;
        (if rv.rv_met then 1 else 0);
        rv.rv_time;
        (match rv.rv_meeting_node with Some node -> node | None -> -1);
        rv.rv_cost;
        rv.rv_cost_a;
        rv.rv_cost_b;
        rv.rv_crossings;
        rv.rv_rounds_run;
        rv.rv_proven_time;
        rv.rv_proven_cost;
        0;
      |]

let vals_of_values (q : Proto.query) values =
  if Array.length values <> values_width then None
  else
    match q with
    | Proto.Worst _ when values.(0) = tag_worst ->
        Some
          (Worst_vals
             {
               wv_pairs_swept = values.(1);
               wv_delays_swept = values.(2);
               wv_e = values.(3);
               wv_time = values.(4);
               wv_cost = values.(5);
               wv_proven_time = values.(6);
               wv_proven_cost = values.(7);
             })
    | Proto.Run _ when values.(0) = tag_run ->
        Some
          (Run_vals
             {
               rv_start_b = values.(1);
               rv_met = values.(2) <> 0;
               rv_time = values.(3);
               rv_meeting_node =
                 (if values.(4) < 0 then None else Some values.(4));
               rv_cost = values.(5);
               rv_cost_a = values.(6);
               rv_cost_b = values.(7);
               rv_crossings = values.(8);
               rv_rounds_run = values.(9);
               rv_proven_time = values.(10);
               rv_proven_cost = values.(11);
             })
    | Proto.Worst _ | Proto.Run _ -> None

(* --- entry ------------------------------------------------------------- *)

let eval_vals ?pool ~deadline_us (q : Proto.query) =
  try
    Rv_obs.Obs.span ~cat:"serve" "serve.compute" @@ fun () ->
    match q with
    | Proto.Worst w -> eval_worst ?pool ~deadline_us w
    | Proto.Run r -> eval_run ~deadline_us r
  with
  | Invalid_argument msg -> Error (Proto.Bad_request, msg, [])
  | exn -> Error (Proto.Internal, Printexc.to_string exn, [])

module Rng = Rv_util.Rng
module Spec = Rv_experiments.Spec
module W = Rv_experiments.Workload
module R = Rv_core.Rendezvous
module Sched = Rv_core.Schedule
module Ex = Rv_explore.Explorer
module Sim = Rv_sim.Sim
module Traj = Rv_sim.Traj
module Json = Rv_obs.Json

type check = Traj_vs_sim | Serve_vs_direct | Sym_on_off

let all_checks = [ Traj_vs_sim; Serve_vs_direct; Sym_on_off ]

let check_to_string = function
  | Traj_vs_sim -> "traj_vs_sim"
  | Serve_vs_direct -> "serve_vs_direct"
  | Sym_on_off -> "sym_on_off"

let check_of_string = function
  | "traj_vs_sim" -> Ok Traj_vs_sim
  | "serve_vs_direct" -> Ok Serve_vs_direct
  | "sym_on_off" -> Ok Sym_on_off
  | other ->
      Error
        (Printf.sprintf
           "unknown check %S (accepted: traj_vs_sim, serve_vs_direct, \
            sym_on_off)"
           other)

type cell = {
  c_family : string;
  c_size : int;
  c_algorithm : string;
  c_space : int;
  c_label_a : int;
  c_label_b : int;
  c_start_a : int;
  c_start_b : int;
  c_delay_a : int;
  c_delay_b : int;
  c_parachute : bool;
}

let graph_spec c = Printf.sprintf "%s:%d" c.c_family c.c_size

(* The shrinker's floors: every family accepts these minima, so size
   candidates never have to know family quirks. *)
let min_size = 4
let max_size = 64
let known_family f =
  String.equal f "ring" || String.equal f "path" || String.equal f "star"

let algorithms = [| "cheap"; "fast"; "fwr:2"; "cheap-sim"; "fast-sim"; "fwr-sim:2" |]

let known_algorithm a = Array.exists (String.equal a) algorithms

let valid c =
  known_family c.c_family
  && known_algorithm c.c_algorithm
  && c.c_size >= min_size && c.c_size <= max_size
  && c.c_space >= 2 && c.c_space <= 64
  && c.c_label_a >= 1 && c.c_label_a <= c.c_space
  && c.c_label_b >= 1 && c.c_label_b <= c.c_space
  && not (Int.equal c.c_label_a c.c_label_b)
  && c.c_start_a >= 0 && c.c_start_a < c.c_size
  && c.c_start_b >= 0 && c.c_start_b < c.c_size
  && not (Int.equal c.c_start_a c.c_start_b)
  && c.c_delay_a >= 0 && c.c_delay_a <= 1_000
  && c.c_delay_b >= 0 && c.c_delay_b <= 1_000

let gen rng =
  let c_family = Rng.choose rng [| "ring"; "path"; "star" |] in
  let hi =
    match c_family with "ring" -> 16 | "path" -> 12 | _ -> 10
  in
  let c_size = Rng.int_in rng min_size hi in
  let c_algorithm = Rng.choose rng algorithms in
  let c_space = Rng.choose rng [| 4; 8; 16 |] in
  let c_label_a = Rng.int_in rng 1 c_space in
  let c_label_b =
    let l = Rng.int_in rng 1 (c_space - 1) in
    if l >= c_label_a then l + 1 else l
  in
  let c_start_a = Rng.int rng c_size in
  let c_start_b =
    let s = Rng.int rng (c_size - 1) in
    if s >= c_start_a then s + 1 else s
  in
  let c_delay_a = Rng.int_in rng 0 6 in
  let c_delay_b = Rng.int_in rng 0 6 in
  let c_parachute = Rng.bool rng in
  {
    c_family; c_size; c_algorithm; c_space; c_label_a; c_label_b;
    c_start_a; c_start_b; c_delay_a; c_delay_b; c_parachute;
  }

(* --- codec -------------------------------------------------------------- *)

let cell_to_string c =
  Printf.sprintf
    "graph=%s algorithm=%s space=%d label_a=%d label_b=%d start_a=%d \
     start_b=%d delay_a=%d delay_b=%d model=%s"
    (graph_spec c) c.c_algorithm c.c_space c.c_label_a c.c_label_b c.c_start_a
    c.c_start_b c.c_delay_a c.c_delay_b
    (if c.c_parachute then "parachute" else "waiting")

let ( let* ) = Result.bind

let cell_of_kv kvs =
  let find name =
    match
      List.find_map
        (fun (k, v) -> if String.equal k name then Some v else None)
        kvs
    with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing key %S" name)
  in
  let int name =
    let* v = find name in
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "%s: not an integer: %S" name v)
  in
  let known =
    [
      "graph"; "algorithm"; "space"; "label_a"; "label_b"; "start_a";
      "start_b"; "delay_a"; "delay_b"; "model";
    ]
  in
  match
    List.find_opt (fun (k, _) -> not (List.exists (String.equal k) known)) kvs
  with
  | Some (k, _) -> Error (Printf.sprintf "unknown key %S" k)
  | None ->
      let* graph = find "graph" in
      let* c_family, c_size =
        match String.index_opt graph ':' with
        | Some i -> (
            let fam = String.sub graph 0 i in
            match
              int_of_string_opt
                (String.sub graph (i + 1) (String.length graph - i - 1))
            with
            | Some n -> Ok (fam, n)
            | None -> Error (Printf.sprintf "graph: bad size in %S" graph))
        | None -> Error (Printf.sprintf "graph: expected family:size, got %S" graph)
      in
      let* c_algorithm = find "algorithm" in
      let* c_space = int "space" in
      let* c_label_a = int "label_a" in
      let* c_label_b = int "label_b" in
      let* c_start_a = int "start_a" in
      let* c_start_b = int "start_b" in
      let* c_delay_a = int "delay_a" in
      let* c_delay_b = int "delay_b" in
      let* model = find "model" in
      let* c_parachute =
        match model with
        | "waiting" -> Ok false
        | "parachute" -> Ok true
        | other -> Error (Printf.sprintf "model: %S" other)
      in
      let c =
        {
          c_family; c_size; c_algorithm; c_space; c_label_a; c_label_b;
          c_start_a; c_start_b; c_delay_a; c_delay_b; c_parachute;
        }
      in
      if valid c then Ok c
      else Error ("cell out of range: " ^ cell_to_string c)

(* --- evaluation --------------------------------------------------------- *)

type mismatch = {
  m_check : check;
  m_cell : cell;
  m_expected : string;
  m_actual : string;
}

(* Test-only fault injection (see mli).  An [Atomic] because tests and
   the fuzz driver may run on different threads. *)
let planted : (cell -> bool) option Atomic.t = Atomic.make None
let set_planted_fault f = Atomic.set planted f
let planted_default c = c.c_size >= 6 && c.c_delay_b >= 2

let harness_fail fmt = Printf.ksprintf failwith fmt

let parse_cell_specs c =
  match Spec.parse_graph (graph_spec c) with
  | Error e -> harness_fail "fuzz: graph %S: %s" (graph_spec c) e
  | Ok gs -> (
      match Spec.parse_explorer gs "auto" with
      | Error e -> harness_fail "fuzz: explorer auto on %S: %s" (graph_spec c) e
      | Ok explorer -> (
          match Spec.parse_algorithm c.c_algorithm with
          | Error e -> harness_fail "fuzz: algorithm %S: %s" c.c_algorithm e
          | Ok algorithm -> (gs, explorer, algorithm)))

let opt_int = function None -> "-" | Some i -> string_of_int i

let show_meeting ~met ~meeting_round ~meeting_node ~cost ~cost_a ~cost_b
    ~rounds_run ~crossings =
  Printf.sprintf
    "met=%b meeting_round=%s meeting_node=%s cost=%d cost_a=%d cost_b=%d \
     rounds_run=%d crossings=%d"
    met (opt_int meeting_round) (opt_int meeting_node) cost cost_a cost_b
    rounds_run crossings

let traj_of ~g ~algorithm ~space ~explorer ~label ~start =
  let sched = R.schedule algorithm ~space ~label ~explorer:(explorer ~start) in
  Traj.of_blocks ~g ~start
    (List.map
       (function
         | Sched.Pause k -> Traj.Still k
         | Sched.Explore e -> Traj.Run (e.Ex.fresh (), e.Ex.bound))
       sched)

let eval_traj c =
  let gs, explorer, algorithm = parse_cell_specs c in
  let g = gs.Spec.g in
  let space = c.c_space in
  let model = if c.c_parachute then Sim.Parachute else Sim.Waiting in
  let out =
    R.run ~model ~g ~explorer ~algorithm ~space
      { R.label = c.c_label_a; start = c.c_start_a; delay = c.c_delay_a }
      { R.label = c.c_label_b; start = c.c_start_b; delay = c.c_delay_b }
  in
  let ta =
    traj_of ~g ~algorithm ~space ~explorer ~label:c.c_label_a ~start:c.c_start_a
  in
  let tb =
    traj_of ~g ~algorithm ~space ~explorer ~label:c.c_label_b ~start:c.c_start_b
  in
  let max_rounds =
    max (ta.Traj.rounds + c.c_delay_a) (tb.Traj.rounds + c.c_delay_b) + 1
  in
  let scan = if c.c_parachute then Traj.meet_intervals else Traj.meet in
  let m =
    scan ~a:ta ~b:tb ~delay_a:c.c_delay_a ~delay_b:c.c_delay_b ~max_rounds
  in
  let m =
    match Atomic.get planted with
    | Some pred when pred c -> { m with Traj.cost = m.Traj.cost + 1 }
    | _ -> m
  in
  let expected =
    show_meeting ~met:out.Sim.met ~meeting_round:out.Sim.meeting_round
      ~meeting_node:out.Sim.meeting_node ~cost:out.Sim.cost
      ~cost_a:out.Sim.cost_a ~cost_b:out.Sim.cost_b
      ~rounds_run:out.Sim.rounds_run ~crossings:out.Sim.crossings
  in
  let actual =
    show_meeting ~met:m.Traj.met ~meeting_round:m.Traj.meeting_round
      ~meeting_node:m.Traj.meeting_node ~cost:m.Traj.cost
      ~cost_a:m.Traj.cost_a ~cost_b:m.Traj.cost_b
      ~rounds_run:m.Traj.rounds_run ~crossings:m.Traj.crossings
  in
  if String.equal expected actual then Ok ()
  else
    Error { m_check = Traj_vs_sim; m_cell = c; m_expected = expected; m_actual = actual }

let request_line ~id c =
  Json.to_string
    (Json.Obj
       [
         ("type", Json.Str "run");
         ("id", Json.Int id);
         ("graph", Json.Str (graph_spec c));
         ("algorithm", Json.Str c.c_algorithm);
         ("space", Json.Int c.c_space);
         ("label_a", Json.Int c.c_label_a);
         ("label_b", Json.Int c.c_label_b);
         ("start_a", Json.Int c.c_start_a);
         ("start_b", Json.Int c.c_start_b);
         ("delay_a", Json.Int c.c_delay_a);
         ("delay_b", Json.Int c.c_delay_b);
         ("model", Json.Str (if c.c_parachute then "parachute" else "waiting"));
       ])

let eval_serve ~port c =
  let line = request_line ~id:1 c in
  let expected = Scenario.expected_for line in
  match Rv_serve.Loadgen.rpc ~port line with
  | Error e -> harness_fail "fuzz: server rpc failed: %s" e
  | Ok reply ->
      if String.equal reply expected then Ok ()
      else
        Error
          {
            m_check = Serve_vs_direct;
            m_cell = c;
            m_expected = expected;
            m_actual = reply;
          }

let show_worst = function
  | Ok (t, cst) -> Printf.sprintf "ok time=%d cost=%d" t cst
  | Error e -> "error " ^ e

let eval_sym c =
  (* Symmetry reduction only engages on vertex-transitive inputs with a
     certifiable walk family; the oriented ring is the canonical case.
     Elsewhere the reduced sweep falls back to the unreduced one by
     construction, so there is nothing to differentiate. *)
  if not (String.equal c.c_family "ring") then Ok ()
  else begin
    let gs, explorer, algorithm = parse_cell_specs c in
    let delays =
      List.sort_uniq
        Rv_util.Ord.(pair int int)
        [ (0, 0); (0, c.c_delay_b); (c.c_delay_a, 0) ]
    in
    let sweep ~sym =
      W.worst_for ~sym ~graph_spec:(graph_spec c) ~g:gs.Spec.g ~algorithm
        ~space:c.c_space ~explorer
        ~pairs:[ (c.c_label_a, c.c_label_b) ]
        ~positions:`All_pairs ~delays ()
    in
    let on = show_worst (sweep ~sym:true) in
    let off = show_worst (sweep ~sym:false) in
    if String.equal on off then Ok ()
    else
      Error { m_check = Sym_on_off; m_cell = c; m_expected = off; m_actual = on }
  end

let eval ?serve_port check c =
  match check with
  | Traj_vs_sim -> eval_traj c
  | Sym_on_off -> eval_sym c
  | Serve_vs_direct -> (
      match serve_port with None -> Ok () | Some port -> eval_serve ~port c)

(* --- driver ------------------------------------------------------------- *)

type run_result = {
  cells_run : int;
  checks_run : int;
  mismatch : mismatch option;
}

let run ?serve_port ?(checks = all_checks) ~seed ~cells ~budget_s () =
  let rng = Rng.create ~seed in
  let t0 = Rv_serve.Clock.now_s () in
  let n_checks = ref 0 in
  let rec cell_loop i =
    let timed_out =
      budget_s > 0. && Rv_serve.Clock.now_s () -. t0 >= budget_s
    in
    if timed_out || (cells > 0 && i >= cells) then
      { cells_run = i; checks_run = !n_checks; mismatch = None }
    else begin
      let c = gen rng in
      let rec check_loop = function
        | [] -> None
        | k :: rest -> (
            incr n_checks;
            match eval ?serve_port k c with
            | Ok () -> check_loop rest
            | Error m -> Some m
          )
      in
      match check_loop checks with
      | Some m -> { cells_run = i + 1; checks_run = !n_checks; mismatch = Some m }
      | None -> cell_loop (i + 1)
    end
  in
  cell_loop 0

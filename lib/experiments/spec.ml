module Pg = Rv_graph.Port_graph
module Rng = Rv_util.Rng

type graph = {
  spec : string;
  g : Pg.t;
  hamiltonian : int list option;
  oriented_ring : bool;
}

let graph_forms =
  [
    "ring:N";
    "scrambled-ring:N[:SEED]";
    "path:N";
    "star:N";
    "tree:N[:SEED]";
    "binary:DEPTH";
    "grid:RxC";
    "torus:RxC";
    "hypercube:D";
    "complete:N";
    "wheel:N";
    "petersen";
    "lollipop:CLIQUE:TAIL";
    "barbell:CLIQUE:BRIDGE";
    "theta:LEN";
    "random:N:EXTRA[:SEED]";
    "file:PATH";
  ]

let explorer_forms = [ "auto"; "ring"; "dfs"; "dfs-nr"; "unmarked"; "euler"; "ham"; "uxs[:SEED]" ]

let algorithm_forms = [ "cheap"; "cheap-sim"; "fast"; "fast-sim"; "fwr:W"; "fwr-sim:W" ]

let int_of name s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: expected an integer, got %S" name s)

let ( let* ) = Result.bind

(* Size ceilings, checked before any graph is constructed.  rv_serve
   feeds untrusted network input into [parse_graph], so a spec like
   "binary:99" must come back [Error] instead of attempting a 2^100-node
   allocation. *)
let max_nodes = 1 lsl 20
let max_clique = 2048

let bounded ?(limit = max_nodes) name n =
  if n > limit then
    Error (Printf.sprintf "%s: %d exceeds the maximum of %d" name n limit)
  else Ok n

let dims s =
  match String.split_on_char 'x' s with
  | [ r; c ] ->
      let* r = int_of "rows" r in
      let* c = int_of "cols" c in
      Ok (r, c)
  | _ -> Error (Printf.sprintf "expected RxC, got %S" s)

let plain g = Ok { spec = ""; g; hamiltonian = None; oriented_ring = false }

let parse_graph spec =
  let parts = String.split_on_char ':' spec in
  let result =
    try
      match parts with
      | [ "ring"; n ] ->
          let* n = int_of "n" n in
          let* n = bounded "n" n in
          Ok
            {
              spec;
              g = Rv_graph.Ring.oriented n;
              hamiltonian = Some (Rv_graph.Ring.clockwise_cycle n);
              oriented_ring = true;
            }
      | "scrambled-ring" :: n :: rest ->
          let* n = int_of "n" n in
          let* n = bounded "n" n in
          let* seed = match rest with [] -> Ok 1 | [ s ] -> int_of "seed" s | _ -> Error "too many fields" in
          plain (Rv_graph.Ring.scrambled (Rng.create ~seed) n)
      | [ "path"; n ] ->
          let* n = int_of "n" n in
          let* n = bounded "n" n in
          plain (Rv_graph.Tree.path n)
      | [ "star"; n ] ->
          let* n = int_of "n" n in
          let* n = bounded "n" n in
          plain (Rv_graph.Tree.star n)
      | "tree" :: n :: rest ->
          let* n = int_of "n" n in
          let* n = bounded "n" n in
          let* seed = match rest with [] -> Ok 1 | [ s ] -> int_of "seed" s | _ -> Error "too many fields" in
          plain (Rv_graph.Tree.random (Rng.create ~seed) n)
      | [ "binary"; d ] ->
          let* depth = int_of "depth" d in
          let* depth = bounded ~limit:19 "depth" depth in
          plain (Rv_graph.Tree.full_binary ~depth)
      | [ "grid"; d ] ->
          let* rows, cols = dims d in
          let* rows = bounded "rows" rows in
          let* cols = bounded "cols" cols in
          let* _ = bounded "rows*cols" (rows * cols) in
          plain (Rv_graph.Grid.make ~rows ~cols)
      | [ "torus"; d ] ->
          let* rows, cols = dims d in
          let* rows = bounded "rows" rows in
          let* cols = bounded "cols" cols in
          let* _ = bounded "rows*cols" (rows * cols) in
          Ok
            {
              spec;
              g = Rv_graph.Torus.make ~rows ~cols;
              hamiltonian = Some (Rv_graph.Torus.hamiltonian_cycle ~rows ~cols);
              oriented_ring = false;
            }
      | [ "hypercube"; d ] ->
          let* dim = int_of "dim" d in
          let* dim = bounded ~limit:20 "dim" dim in
          Ok
            {
              spec;
              g = Rv_graph.Hypercube.make ~dim;
              hamiltonian = Some (Rv_graph.Hypercube.hamiltonian_cycle ~dim);
              oriented_ring = false;
            }
      | [ "complete"; n ] ->
          let* n = int_of "n" n in
          let* n = bounded ~limit:max_clique "n" n in
          Ok
            {
              spec;
              g = Rv_graph.Complete_graph.make n;
              hamiltonian = Some (Rv_graph.Complete_graph.hamiltonian_cycle n);
              oriented_ring = false;
            }
      | [ "wheel"; n ] ->
          let* n = int_of "n" n in
          let* n = bounded "n" n in
          plain (Rv_graph.Special.wheel n)
      | [ "petersen" ] -> plain (Rv_graph.Special.petersen ())
      | [ "lollipop"; c; t ] ->
          let* clique = int_of "clique" c in
          let* clique = bounded ~limit:max_clique "clique" clique in
          let* tail = int_of "tail" t in
          let* tail = bounded "tail" tail in
          plain (Rv_graph.Special.lollipop ~clique ~tail)
      | [ "barbell"; c; b ] ->
          let* clique = int_of "clique" c in
          let* clique = bounded ~limit:max_clique "clique" clique in
          let* bridge = int_of "bridge" b in
          let* bridge = bounded "bridge" bridge in
          plain (Rv_graph.Special.barbell ~clique ~bridge)
      | [ "theta"; l ] ->
          let* len = int_of "len" l in
          let* len = bounded "len" len in
          plain (Rv_graph.Special.theta ~len)
      | "file" :: path_parts ->
          let path = String.concat ":" path_parts in
          Result.bind (Rv_graph.Serial.read_file ~path) plain
      | "random" :: n :: extra :: rest ->
          let* n = int_of "n" n in
          let* n = bounded "n" n in
          let* extra = int_of "extra" extra in
          let* extra = bounded "extra" extra in
          let* seed = match rest with [] -> Ok 1 | [ s ] -> int_of "seed" s | _ -> Error "too many fields" in
          plain (Rv_graph.Random_graph.connected (Rng.create ~seed) ~n ~extra_edges:extra)
      | _ ->
          Error
            (Printf.sprintf "unknown graph spec %S; accepted forms: %s" spec
               (String.concat ", " graph_forms))
    with Invalid_argument msg -> Error msg
  in
  Result.map (fun g -> { g with spec }) result

(* Every explorer family is built here, once per parsed graph: the
   map-based ones compile their port tables and check their certificates
   on partial application, and the start-blind ones are one shared value. *)
let parse_explorer graph spec =
  let g = graph.g in
  let parts = String.split_on_char ':' spec in
  let any_start ex = fun ~start -> ignore start; ex in
  try
    match parts with
    | [ "auto" ] ->
        if graph.oriented_ring then Ok (any_start (Rv_explore.Ring_walk.clockwise ~n:(Pg.n g)))
        else (
          match graph.hamiltonian with
          | Some cycle -> Ok (Rv_explore.Ham_walk.make g ~cycle)
          | None ->
              if Rv_graph.Euler.is_eulerian g then Ok (Rv_explore.Euler_walk.closed g)
              else Ok (Rv_explore.Map_dfs.returning g))
    | [ "ring" ] ->
        if graph.oriented_ring then Ok (any_start (Rv_explore.Ring_walk.clockwise ~n:(Pg.n g)))
        else Error "explorer 'ring' needs an oriented ring"
    | [ "dfs" ] -> Ok (Rv_explore.Map_dfs.returning g)
    | [ "dfs-nr" ] -> Ok (Rv_explore.Map_dfs.non_returning g)
    | [ "unmarked" ] -> Ok (any_start (Rv_explore.Unmarked_dfs.make g))
    | [ "euler" ] ->
        if Rv_graph.Euler.is_eulerian g then Ok (Rv_explore.Euler_walk.closed g)
        else Error "explorer 'euler' needs an Eulerian graph"
    | [ "ham" ] -> (
        match graph.hamiltonian with
        | Some cycle -> Ok (Rv_explore.Ham_walk.make g ~cycle)
        | None -> Error "explorer 'ham' needs a family with a Hamiltonian certificate")
    | "uxs" :: rest -> (
        let seed = match rest with [ s ] -> int_of_string_opt s | _ -> Some 42 in
        match seed with
        | None -> Error "uxs: bad seed"
        | Some seed ->
            let m = Pg.n g in
            let corpus = g :: Rv_explore.Uxs.default_corpus ~size_bound:m in
            Result.map
              (fun u -> any_start (Rv_explore.Uxs_walk.make u))
              (Rv_explore.Uxs.construct ~corpus ~size_bound:m ~seed))
    | _ ->
        Error
          (Printf.sprintf "unknown explorer spec %S; accepted forms: %s" spec
             (String.concat ", " explorer_forms))
  with Invalid_argument msg -> Error msg

let parse_algorithm spec =
  let parts = String.split_on_char ':' spec in
  match parts with
  | [ "cheap" ] -> Ok Rv_core.Rendezvous.Cheap
  | [ "cheap-sim" ] -> Ok Rv_core.Rendezvous.Cheap_simultaneous
  | [ "fast" ] -> Ok Rv_core.Rendezvous.Fast
  | [ "fast-sim" ] -> Ok Rv_core.Rendezvous.Fast_simultaneous
  | [ "fwr"; w ] -> (
      match int_of_string_opt w with
      | Some w when w >= 1 -> Ok (Rv_core.Rendezvous.Fwr w)
      | Some _ | None -> Error "fwr: weight must be a positive integer")
  | [ "fwr-sim"; w ] -> (
      match int_of_string_opt w with
      | Some w when w >= 1 -> Ok (Rv_core.Rendezvous.Fwr_simultaneous w)
      | Some _ | None -> Error "fwr-sim: weight must be a positive integer")
  | _ ->
      Error
        (Printf.sprintf "unknown algorithm %S; accepted forms: %s" spec
           (String.concat ", " algorithm_forms))

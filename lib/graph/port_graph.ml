type t = { n : int; adj : (int * int) array array }

type endpoint = { node : int; port : int }

let n t = t.n

let degree t v = Array.length t.adj.(v)

let num_edges t =
  Array.fold_left (fun acc row -> acc + Array.length row) 0 t.adj / 2

let follow t u p =
  if u < 0 || u >= t.n then invalid_arg "Port_graph.follow: node out of range";
  if p < 0 || p >= degree t u then invalid_arg "Port_graph.follow: bad port";
  t.adj.(u).(p)

let neighbor t u p = fst (follow t u p)

let is_connected_raw n adj =
  if n = 0 then false
  else begin
    let seen = Array.make n false in
    let queue = Queue.create () in
    Queue.add 0 queue;
    seen.(0) <- true;
    let count = ref 1 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Array.iter
        (fun (v, _) ->
          if v >= 0 && v < n && not seen.(v) then begin
            seen.(v) <- true;
            incr count;
            Queue.add v queue
          end)
        adj.(u)
    done;
    !count = n
  end

let check_raw n adj =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if n <= 0 then fail "graph must have at least one node"
  else if Array.length adj <> n then
    fail "adjacency has %d rows, expected %d" (Array.length adj) n
  else begin
    let exception Bad of string in
    try
      for u = 0 to n - 1 do
        let d = Array.length adj.(u) in
        let seen_neighbors = Hashtbl.create 8 in
        for p = 0 to d - 1 do
          let v, q = adj.(u).(p) in
          if v < 0 || v >= n then
            raise (Bad (Printf.sprintf "node %d port %d: endpoint %d out of range" u p v));
          if v = u then raise (Bad (Printf.sprintf "node %d port %d: self-loop" u p));
          if Hashtbl.mem seen_neighbors v then
            raise (Bad (Printf.sprintf "nodes %d and %d: parallel edge" u v));
          Hashtbl.add seen_neighbors v ();
          if q < 0 || q >= Array.length adj.(v) then
            raise (Bad (Printf.sprintf "node %d port %d: entry port %d invalid at node %d" u p q v));
          let u', p' = adj.(v).(q) in
          if u' <> u || p' <> p then
            raise
              (Bad
                 (Printf.sprintf
                    "port symmetry broken: %d.%d -> (%d,%d) but %d.%d -> (%d,%d)" u p v q v
                    q u' p'))
        done
      done;
      if not (is_connected_raw n adj) then raise (Bad "graph is not connected");
      Ok ()
    with Bad msg -> Error msg
  end

let check t = check_raw t.n t.adj

let is_connected t = is_connected_raw t.n t.adj

let create ~n adj =
  match check_raw n adj with
  | Ok () -> { n; adj = Array.map Array.copy adj }
  | Error msg -> invalid_arg ("Port_graph.create: " ^ msg)

let edges t =
  let out = ref [] in
  for u = 0 to t.n - 1 do
    for p = 0 to degree t u - 1 do
      let v, q = t.adj.(u).(p) in
      if (u, p) < (v, q) then
        out := ({ node = u; port = p }, { node = v; port = q }) :: !out
    done
  done;
  List.rev !out

let equal_structure a b = a.n = b.n && a.adj = b.adj

let relabel_ports rng t =
  (* For each node pick a permutation of its ports, then rewrite both sides
     of every edge accordingly. *)
  let perms = Array.init t.n (fun v -> Rv_util.Rng.permutation rng (degree t v)) in
  let adj =
    Array.init t.n (fun v ->
        let d = degree t v in
        let row = Array.make d (-1, -1) in
        for p = 0 to d - 1 do
          let u, q = t.adj.(v).(p) in
          row.(perms.(v).(p)) <- (u, perms.(u).(q))
        done;
        row)
  in
  create ~n:t.n adj

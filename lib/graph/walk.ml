type t = int list

let apply g ~start ports =
  let rec go u acc = function
    | [] -> List.rev (u :: acc)
    | p :: rest ->
        let v, _ = Port_graph.follow g u p in
        go v (u :: acc) rest
  in
  go start [] ports

let final g ~start ports =
  List.fold_left (fun u p -> Port_graph.neighbor g u p) start ports

let covers_all g ~start ports =
  let n = Port_graph.n g in
  let seen = Array.make n false in
  List.iter (fun v -> seen.(v) <- true) (apply g ~start ports);
  Array.for_all (fun b -> b) seen

(* Each move in the raw walk is tagged with whether it discovers a new
   node; [dfs_no_return] drops the suffix of pure backtracking. *)
let dfs_tagged g ~start =
  let n = Port_graph.n g in
  let visited = Array.make n false in
  let moves = ref [] in
  let rec explore u =
    visited.(u) <- true;
    for p = 0 to Port_graph.degree g u - 1 do
      let v, q = Port_graph.follow g u p in
      if not visited.(v) then begin
        moves := (p, true) :: !moves;
        explore v;
        moves := (q, false) :: !moves
      end
    done
  in
  explore start;
  List.rev !moves

let dfs g ~start = List.map fst (dfs_tagged g ~start)

let dfs_no_return g ~start =
  let tagged = dfs_tagged g ~start in
  (* Keep everything up to (and including) the last discovery move. *)
  let rec trim_rev = function
    | [] -> []
    | (_, false) :: rest -> trim_rev rest
    | (_, true) :: _ as kept -> kept
  in
  List.rev_map fst (trim_rev (List.rev tagged))

let port_to g u v =
  let rec scan p =
    if p >= Port_graph.degree g u then
      invalid_arg (Printf.sprintf "Walk.port_to: no edge %d -- %d" u v)
    else if Port_graph.neighbor g u p = v then p
    else scan (p + 1)
  in
  scan 0

let from_cycle g ~cycle ~start =
  let n = Port_graph.n g in
  let arr = Array.of_list cycle in
  if Array.length arr <> n then
    invalid_arg "Walk.from_cycle: certificate has wrong length";
  let seen = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then
        invalid_arg "Walk.from_cycle: certificate is not a permutation of nodes";
      seen.(v) <- true)
    arr;
  let pos = ref (-1) in
  Array.iteri (fun i v -> if v = start then pos := i) arr;
  if !pos < 0 then invalid_arg "Walk.from_cycle: start not on cycle";
  List.init (n - 1) (fun i ->
      let a = arr.((!pos + i) mod n) and b = arr.((!pos + i + 1) mod n) in
      port_to g a b)

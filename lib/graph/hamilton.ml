let adjacent g u v =
  let d = Port_graph.degree g u in
  let rec scan p = p < d && (Port_graph.neighbor g u p = v || scan (p + 1)) in
  scan 0

let check g cycle =
  let n = Port_graph.n g in
  let arr = Array.of_list cycle in
  Array.length arr = n
  && begin
       let seen = Array.make n false in
       let ok = ref true in
       Array.iter
         (fun v ->
           if v < 0 || v >= n || seen.(v) then ok := false else seen.(v) <- true)
         arr;
       !ok
     end
  &&
  let rec edges i =
    i >= Array.length arr
    || (adjacent g arr.(i) arr.((i + 1) mod Array.length arr) && edges (i + 1))
  in
  edges 0

let brute_force_limit_n = 16

let find_brute_force g =
  let n = Port_graph.n g in
  if n > brute_force_limit_n then invalid_arg "Hamilton.find_brute_force: graph too large";
  let visited = Array.make n false in
  let path = Array.make n (-1) in
  let rec extend depth u =
    path.(depth) <- u;
    visited.(u) <- true;
    let found =
      if depth = n - 1 then adjacent g u path.(0)
      else begin
        let rec try_port p =
          p < Port_graph.degree g u
          &&
          let v = Port_graph.neighbor g u p in
          ((not visited.(v)) && extend (depth + 1) v) || try_port (p + 1)
        in
        try_port 0
      end
    in
    if not found then visited.(u) <- false;
    found
  in
  if n >= 3 && extend 0 0 then Some (Array.to_list path) else None

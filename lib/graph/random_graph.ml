module Rng = Rv_util.Rng

module Pair_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let norm u v = if u < v then (u, v) else (v, u)

let random_tree_edges rng n =
  List.init (n - 1) (fun i ->
      let child = i + 1 in
      (Rng.int rng child, child))

let connected rng ~n ~extra_edges =
  if n < 2 then invalid_arg "Random_graph.connected: need n >= 2";
  if extra_edges < 0 then invalid_arg "Random_graph.connected: negative extra_edges";
  let tree = random_tree_edges rng n in
  let present = ref (Pair_set.of_list (List.map (fun (u, v) -> norm u v) tree)) in
  let max_edges = n * (n - 1) / 2 in
  let target = min extra_edges (max_edges - (n - 1)) in
  let added = ref [] in
  let count = ref 0 in
  while !count < target do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Pair_set.mem (norm u v) !present) then begin
      present := Pair_set.add (norm u v) !present;
      added := norm u v :: !added;
      incr count
    end
  done;
  Build.of_edges ~n (tree @ List.rev !added)

let regular_even rng ~n ~half_degree =
  if half_degree < 1 then invalid_arg "Random_graph.regular_even: need half_degree >= 1";
  if n < (2 * half_degree) + 1 then
    invalid_arg "Random_graph.regular_even: need n >= 2 * half_degree + 1";
  (* Circulant skeleton: node i joined to i +- j for j = 1..k.  Always
     simple for n >= 2k + 1, connected (offset 1 is a Hamiltonian cycle)
     and 2k-regular, hence Eulerian.  A random node permutation plus random
     port labels give seed-dependent variety. *)
  let perm = Rng.permutation rng n in
  let edges = ref [] in
  for j = 1 to half_degree do
    for i = 0 to n - 1 do
      let a = perm.(i) and b = perm.((i + j) mod n) in
      if j < n - j || a < b then edges := norm a b :: !edges
    done
  done;
  let edges = Pair_set.elements (Pair_set.of_list !edges) in
  Port_graph.relabel_ports rng (Build.of_edges ~n edges)

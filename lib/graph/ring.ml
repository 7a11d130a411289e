let oriented n =
  if n < 3 then invalid_arg "Ring.oriented: need n >= 3";
  let quads = List.init n (fun i -> (i, 0, (i + 1) mod n, 1)) in
  Build.of_ports ~n quads

let scrambled rng n =
  let g = oriented n in
  Port_graph.relabel_ports rng g

let clockwise_cycle n = List.init n (fun i -> i)

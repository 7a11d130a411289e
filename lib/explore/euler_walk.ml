module Pg = Rv_graph.Port_graph
module Euler = Rv_graph.Euler

let require_eulerian g =
  if not (Euler.is_eulerian g) then invalid_arg "Euler_walk: graph is not Eulerian"

let closed g =
  require_eulerian g;
  let bound = Pg.num_edges g in
  fun ~start -> Explorer.of_map_walks ~name:"euler" ~bound g (Euler.circuit g) ~start

let truncated g =
  require_eulerian g;
  let bound = if Pg.n g = 1 then 0 else Pg.num_edges g - 1 in
  fun ~start ->
    Explorer.of_map_walks ~name:"euler-truncated" ~bound g (Euler.circuit_no_return g) ~start

module Pg = Rv_graph.Port_graph
module Walk = Rv_graph.Walk

let bound_returning ~n = (2 * n) - 2

let bound_non_returning ~n = max 1 ((2 * n) - 3)

let returning g =
  let bound = bound_returning ~n:(Pg.n g) in
  fun ~start -> Explorer.of_map_walks ~name:"map-dfs" ~bound g (Walk.dfs g) ~start

let non_returning g =
  let bound = bound_non_returning ~n:(Pg.n g) in
  fun ~start ->
    Explorer.of_map_walks ~name:"map-dfs-nr" ~bound g (Walk.dfs_no_return g) ~start

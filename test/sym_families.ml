(* The vertex-transitive families whose explorers commute with the
   graph's port-preserving automorphisms, shared by the trajectory and
   symmetry tests: each certifies, so sweeps over them reduce. *)

let reduced () =
  [
    ( "ring:8",
      Rv_graph.Ring.oriented 8,
      fun ~start ->
        ignore start;
        Rv_explore.Ring_walk.clockwise ~n:8 );
    ( "torus:3x4",
      Rv_graph.Torus.make ~rows:3 ~cols:4,
      let torus = Rv_graph.Torus.make ~rows:3 ~cols:4 in
      fun ~start -> Rv_explore.Euler_walk.closed torus ~start );
    ( "hypercube:3",
      Rv_graph.Hypercube.make ~dim:3,
      let cube = Rv_graph.Hypercube.make ~dim:3 in
      fun ~start -> Rv_explore.Map_dfs.returning cube ~start );
    ( "circulant:6",
      Rv_graph.Complete_graph.circulant 6,
      let k = Rv_graph.Complete_graph.circulant 6 in
      fun ~start -> Rv_explore.Map_dfs.returning k ~start );
  ]

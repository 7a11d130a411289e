(* The vertex-transitive families whose explorers commute with the
   graph's port-preserving automorphisms, shared by the trajectory and
   symmetry tests: each certifies, so sweeps over them reduce.  Below
   them, the graphs and explorer forms the certification and contract
   tests range over, and a family that breaks the explorer contract. *)

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

(* Vertex-transitive graphs with every explorer form that applies to
   them: ring:8/12/16 take all eight, torus:3x4 and hypercube:4 seven
   (no ring walk), hypercube:3 and circulant:6 six (no Euler circuit
   either: odd degree). *)
let spec_graphs () =
  let module Spec = Rv_experiments.Spec in
  List.map
    (fun spec -> match Spec.parse_graph spec with Ok gs -> gs | Error e -> failwith e)
    [ "ring:8"; "ring:12"; "ring:16"; "torus:3x4"; "hypercube:3"; "hypercube:4" ]
  @ [
      {
        Spec.spec = "circulant:6";
        g = Rv_graph.Complete_graph.circulant 6;
        hamiltonian = Some (Rv_graph.Complete_graph.hamiltonian_cycle 6);
        oriented_ring = false;
      };
    ]

(* Every explorer form, "uxs[:SEED]" as "uxs" (the default seed). *)
let explorer_specs =
  List.map (fun form -> List.hd (String.split_on_char '[' form)) Rv_experiments.Spec.explorer_forms

(* A family that breaks the explorer contract: every first execution
   walks clockwise, and later ones walk counter-clockwise unless the
   family was built for start 0.  First executions agree from every
   node, so checking them alone certifies it, but a label's second
   execution from a start other than 0 is no image of the one from 0. *)
let contrary ~n ~start =
  let executions = ref 0 in
  Rv_explore.Explorer.make ~name:"contrary" ~bound:(n - 1) ~fresh:(fun () ->
      incr executions;
      let port = if !executions = 1 || start = 0 then 0 else 1 in
      fun _ -> Rv_explore.Explorer.move port)

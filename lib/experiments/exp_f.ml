module R = Rv_core.Rendezvous
module Table = Rv_util.Table
module Pg = Rv_graph.Port_graph

type scenario = {
  name : string;
  g : Pg.t;
  explorer : start:int -> Rv_explore.Explorer.t;
  knowledge : string;
}

let scenarios () =
  let rng = Rv_util.Rng.create ~seed:7 in
  let ring = Rv_graph.Ring.oriented 16 in
  let ring_s = Rv_graph.Ring.scrambled rng 16 in
  let grid = Rv_graph.Grid.make ~rows:4 ~cols:4 in
  let torus = Rv_graph.Torus.make ~rows:4 ~cols:4 in
  let hc = Rv_graph.Hypercube.make ~dim:3 in
  let hc_cycle = Rv_graph.Hypercube.hamiltonian_cycle ~dim:3 in
  let tree = Rv_graph.Tree.random rng 16 in
  let complete = Rv_graph.Complete_graph.make 9 in
  let complete_cycle = Rv_graph.Complete_graph.hamiltonian_cycle 9 in
  let lolli = Rv_graph.Special.lollipop ~clique:5 ~tail:4 in
  let rand = Rv_graph.Random_graph.connected rng ~n:14 ~extra_edges:6 in
  let uxs =
    match
      Rv_explore.Uxs.construct
        ~corpus:(Rv_explore.Uxs.default_corpus ~size_bound:14)
        ~size_bound:14 ~seed:2024
    with
    | Ok u -> u
    | Error e -> failwith e
  in
  [
    {
      name = "oriented ring n=16";
      g = ring;
      explorer = (fun ~start -> ignore start; Rv_explore.Ring_walk.clockwise ~n:16);
      knowledge = "orientation (E=n-1)";
    };
    {
      name = "scrambled ring n=16";
      g = ring_s;
      explorer = Rv_explore.Map_dfs.returning ring_s;
      knowledge = "marked map (E=2n-2)";
    };
    {
      name = "grid 4x4";
      g = grid;
      explorer = Rv_explore.Map_dfs.returning grid;
      knowledge = "marked map (E=2n-2)";
    };
    {
      name = "torus 4x4";
      g = torus;
      explorer = Rv_explore.Euler_walk.closed torus;
      knowledge = "Euler circuit (E=e)";
    };
    {
      name = "hypercube d=3";
      g = hc;
      explorer = Rv_explore.Ham_walk.make hc ~cycle:hc_cycle;
      knowledge = "Hamiltonian cycle (E=n-1)";
    };
    {
      name = "random tree n=16";
      g = tree;
      explorer = Rv_explore.Map_dfs.non_returning tree;
      knowledge = "marked map (E=2n-3)";
    };
    {
      name = "complete K9";
      g = complete;
      explorer = Rv_explore.Ham_walk.make complete ~cycle:complete_cycle;
      knowledge = "Hamiltonian cycle (E=n-1)";
    };
    {
      name = "lollipop 5+4";
      g = lolli;
      explorer = (fun ~start -> ignore start; Rv_explore.Unmarked_dfs.make lolli);
      knowledge = "unmarked map (E=2n(2n-2))";
    };
    {
      name = "random n=14";
      g = rand;
      explorer = (fun ~start -> ignore start; Rv_explore.Uxs_walk.make uxs);
      knowledge = "size bound only (UXS)";
    };
  ]

let measure ?pool ~space s =
  let e = Workload.e_of s.explorer in
  let measured_e =
    match Rv_explore.Bounds.worst s.g ~make:s.explorer with
    | Ok w -> w
    | Error _ -> -1
  in
  let pairs = Workload.sample_pairs ~space ~max_pairs:4 in
  let delays = [ (0, 0); (0, max 1 (e / 3)) ] in
  let positions =
    (* Exhaustive start pairs are too many for the slow explorers; sample a
       spread of gaps from node 0 plus a few arbitrary pairs. *)
    let n = Pg.n s.g in
    `Pairs
      (List.filter_map (fun i -> if i <> 0 then Some (0, i) else None)
         (List.init n (fun i -> i))
      @ [ (n / 2, n - 1); (n - 1, 1) ])
  in
  match
    Workload.worst_for ?pool ~g:s.g ~algorithm:R.Fast ~space ~explorer:s.explorer ~pairs
      ~positions ~delays ()
  with
  | Error msg ->
      [ s.name; s.knowledge; string_of_int e; "-"; "FAIL: " ^ msg; "-"; "-"; "-" ]
  | Ok (t, c) ->
      [
        s.name;
        s.knowledge;
        string_of_int e;
        string_of_int measured_e;
        string_of_int t;
        Table.cell_float (float_of_int t /. float_of_int e);
        string_of_int c;
        Table.cell_float (float_of_int c /. float_of_int e);
      ]

let table ?pool ?(space = 8) () =
  let rows = List.map (measure ?pool ~space) (scenarios ()) in
  Table.make
    ~title:
      (Printf.sprintf "EXP-F: Fast across graph families and exploration procedures (L=%d)"
         space)
    ~headers:
      [ "graph"; "knowledge / E"; "E"; "measured E"; "worst time"; "time/E"; "worst cost"; "cost/E" ]
    ~notes:
      [
        "Per Section 1.2, the bound E depends on what the agents know;";
        "normalized by the right E, Fast's time/E and cost/E stay within the";
        "same O(log L) envelope on every substrate.  'measured E' is the exact";
        "exploration time (Bounds.worst): where the declared E is loose (unmarked";
        "map, UXS) the time/E ratio shrinks proportionally -- sharper knowledge";
        "of E transfers one-for-one into rendezvous performance.";
      ]
    rows

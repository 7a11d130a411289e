(* Software agents: rendezvous in an unknown computer network.

   Run with:  dune exec examples/software_agents.exe

   Two software agents are injected into a network whose topology they do
   NOT know — privacy-conscious hosts refuse to reveal identifiers, and the
   agents only ever see the degree of the current host and the port they
   arrived through.  All they are given is an upper bound m on the network
   size, from which a universal exploration sequence (UXS) provides the
   EXPLORE procedure (our corpus-verified substitute for Reingold's
   construction; see DESIGN.md).

   The adversary picks the topology, both injection points, and the wake-up
   delay.  We sweep several adversarial choices and confirm the paper's
   bounds hold under every one of them. *)

module R = Rv_core.Rendezvous
module Pg = Rv_graph.Port_graph

let () =
  let size_bound = 14 in
  Printf.printf "Building a UXS for all networks of size <= %d...\n%!" size_bound;
  let uxs =
    match
      Rv_explore.Uxs.construct
        ~corpus:(Rv_explore.Uxs.default_corpus ~size_bound)
        ~size_bound ~seed:99
    with
    | Ok u -> u
    | Error e -> failwith e
  in
  let e = Array.length uxs.Rv_explore.Uxs.terms in
  Printf.printf "  sequence length (the exploration bound E): %d\n\n" e;
  let explorer ~start =
    ignore start;
    Rv_explore.Uxs_walk.make uxs
  in
  let space = 32 in
  let topologies =
    [
      ("corporate LAN (random, n=12)", Rv_graph.Random_graph.connected (Rv_util.Rng.create ~seed:3) ~n:12 ~extra_edges:5);
      ("ring backbone (n=14)", Rv_graph.Ring.scrambled (Rv_util.Rng.create ~seed:4) 14);
      ("data-center pod (K7)", Rv_graph.Complete_graph.make 7);
      ("sensor tree (n=13)", Rv_graph.Tree.random (Rv_util.Rng.create ~seed:5) 13);
    ]
  in
  Printf.printf "Algorithm Fast, label space L=%d; adversarial sweeps per topology:\n\n" space;
  List.iter
    (fun (name, g) ->
      let n = Pg.n g in
      let worst_t = ref 0 and worst_c = ref 0 and runs = ref 0 in
      List.iter
        (fun (la, lb) ->
          List.iter
            (fun delay ->
              List.iter
                (fun gap ->
                  let out =
                    R.run ~g ~explorer ~algorithm:R.Fast ~space
                      { R.label = la; start = 0; delay = 0 }
                      { R.label = lb; start = gap; delay }
                  in
                  incr runs;
                  match out.Rv_sim.Sim.meeting_round with
                  | Some t ->
                      worst_t := max !worst_t t;
                      worst_c := max !worst_c out.Rv_sim.Sim.cost
                  | None ->
                      Printf.printf "  !! %s: NO MEETING (labels %d/%d, gap %d, delay %d)\n"
                        name la lb gap delay)
                [ 1; n / 2; n - 1 ])
            [ 0; 1; e / 2 ])
        [ (7, 21); (1, 32); (15, 16) ];
      Printf.printf "  %-28s worst time %6d (%.2f E)   worst cost %6d (%.2f E)   [%d runs]\n"
        name !worst_t
        (float_of_int !worst_t /. float_of_int e)
        !worst_c
        (float_of_int !worst_c /. float_of_int e)
        !runs)
    topologies;
  print_newline ();
  Printf.printf "Proven: time <= %d (%.0f E), cost <= %d (%.0f E) — the same E-normalized\n"
    (R.proven_time_bound R.Fast ~e ~space)
    (float_of_int (R.proven_time_bound R.Fast ~e ~space) /. float_of_int e)
    (R.proven_cost_bound R.Fast ~e ~space)
    (float_of_int (R.proven_cost_bound R.Fast ~e ~space) /. float_of_int e);
  print_endline "envelope covers every topology, because EXPLORE is a black box to Fast."

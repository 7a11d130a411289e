module Pg = Rv_graph.Port_graph
module Rng = Rv_util.Rng

type t = { terms : int array; size_bound : int; seed : int }

let ilog2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

let sequence_length ~size_bound =
  let m = max 2 size_bound in
  8 * m * m * max 1 (ilog2 (m + 1) + 1)

let max_attempts = 64

(* Replay the sequence, calling [visit] at each node reached; returns the
   1-based index of the step after which coverage completed, if any. *)
let replay terms g ~start =
  let n = Pg.n g in
  let seen = Array.make n false in
  seen.(start) <- true;
  let remaining = ref (n - 1) in
  let pos = ref start and entry = ref 0 in
  let cover_round = ref None in
  (try
     Array.iteri
       (fun i a ->
         let d = Pg.degree g !pos in
         let exit = (!entry + a) mod d in
         let v, q = Pg.follow g !pos exit in
         pos := v;
         entry := q;
         if not seen.(v) then begin
           seen.(v) <- true;
           decr remaining;
           if !remaining = 0 then begin
             cover_round := Some (i + 1);
             raise Exit
           end
         end)
       terms
   with Exit -> ());
  if n = 1 then Some 0 else !cover_round

let rounds_to_cover t g ~start = replay t.terms g ~start

let walk t g ~start =
  let pos = ref start and entry = ref 0 in
  let nodes = ref [ start ] in
  Array.iter
    (fun a ->
      let d = Pg.degree g !pos in
      let exit = (!entry + a) mod d in
      let v, q = Pg.follow g !pos exit in
      pos := v;
      entry := q;
      nodes := v :: !nodes)
    t.terms;
  List.rev !nodes

let covers_terms terms g =
  let n = Pg.n g in
  let rec from_start s = s >= n || (replay terms g ~start:s <> None && from_start (s + 1)) in
  from_start 0

let covers t g = covers_terms t.terms g

let default_corpus ~size_bound =
  let m = size_bound in
  let add_if cond builder acc = if cond then builder () :: acc else acc in
  let graphs = ref [] in
  (* Rings and paths at several sizes up to m. *)
  let sizes = List.filter (fun s -> s <= m) [ 3; 4; 5; 6; 8; 10; 12; 16; 24; 32 ] in
  List.iter
    (fun s ->
      graphs := Rv_graph.Ring.oriented s :: !graphs;
      if s >= 2 then graphs := Rv_graph.Tree.path s :: !graphs;
      if s >= 3 then graphs := Rv_graph.Tree.star s :: !graphs)
    sizes;
  graphs := add_if (m >= 4) (fun () -> Rv_graph.Grid.make ~rows:2 ~cols:2) !graphs;
  graphs := add_if (m >= 9) (fun () -> Rv_graph.Grid.make ~rows:3 ~cols:3) !graphs;
  graphs := add_if (m >= 12) (fun () -> Rv_graph.Grid.make ~rows:3 ~cols:4) !graphs;
  graphs := add_if (m >= 9) (fun () -> Rv_graph.Torus.make ~rows:3 ~cols:3) !graphs;
  graphs := add_if (m >= 16) (fun () -> Rv_graph.Torus.make ~rows:4 ~cols:4) !graphs;
  graphs := add_if (m >= 8) (fun () -> Rv_graph.Hypercube.make ~dim:3) !graphs;
  graphs := add_if (m >= 16) (fun () -> Rv_graph.Hypercube.make ~dim:4) !graphs;
  graphs := add_if (m >= 4) (fun () -> Rv_graph.Complete_graph.make 4) !graphs;
  graphs := add_if (m >= 7) (fun () -> Rv_graph.Complete_graph.make 7) !graphs;
  graphs := add_if (m >= 7) (fun () -> Rv_graph.Tree.full_binary ~depth:2) !graphs;
  graphs := add_if (m >= 15) (fun () -> Rv_graph.Tree.full_binary ~depth:3) !graphs;
  graphs := add_if (m >= 8) (fun () -> Rv_graph.Special.lollipop ~clique:4 ~tail:4) !graphs;
  graphs := add_if (m >= 10) (fun () -> Rv_graph.Special.petersen ()) !graphs;
  graphs := add_if (m >= 8) (fun () -> Rv_graph.Special.theta ~len:2) !graphs;
  (* Seeded random graphs of assorted sizes. *)
  let rng = Rng.create ~seed:0x5eed in
  List.iter
    (fun s ->
      if s <= m && s >= 4 then begin
        graphs := Rv_graph.Random_graph.connected rng ~n:s ~extra_edges:(s / 2) :: !graphs;
        graphs := Rv_graph.Tree.random rng s :: !graphs
      end)
    [ 5; 7; 9; 11; 13; 16; 20; 24; 28; 32 ];
  List.filter (fun g -> Pg.n g <= m) !graphs

let construct ~corpus ~size_bound ~seed =
  let length = sequence_length ~size_bound in
  List.iter
    (fun g ->
      if Pg.n g > size_bound then
        invalid_arg "Uxs.construct: corpus graph larger than size_bound")
    corpus;
  let attempt k =
    let rng = Rng.create ~seed:(seed + k) in
    let terms = Array.init length (fun _ -> Rng.int rng (max 2 size_bound)) in
    if List.for_all (fun g -> covers_terms terms g) corpus then
      Some { terms; size_bound; seed = seed + k }
    else None
  in
  let rec search k =
    if k >= max_attempts then
      Error
        (Printf.sprintf
           "Uxs.construct: no sequence of length %d covered the corpus within %d attempts"
           length max_attempts)
    else match attempt k with Some t -> Ok t | None -> search (k + 1)
  in
  search 0

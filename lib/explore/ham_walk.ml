module Pg = Rv_graph.Port_graph
module Walk = Rv_graph.Walk
module Hamilton = Rv_graph.Hamilton

let make g ~cycle =
  if not (Hamilton.check g cycle) then
    invalid_arg "Ham_walk.make: invalid Hamiltonian cycle certificate";
  let n = Pg.n g in
  let nodes = Array.of_list cycle in
  let index = Array.make n 0 in
  Array.iteri (fun i v -> index.(v) <- i) nodes;
  (* [ports.(i)] leads from [nodes.(i mod n)] to the next node on the
     cycle.  Twice around, every execution's [n - 1] moves from any cycle
     index are one contiguous slice. *)
  let around = Array.init n (fun i -> Walk.port_to g nodes.(i) nodes.((i + 1) mod n)) in
  let ports = Array.append around around in
  fun ~start ->
    (* The tracked position, as an index on the cycle: [n - 1] moves
       forward end one node behind where they began. *)
    let at = ref index.(start) in
    Explorer.of_slices ~name:"hamiltonian" ~bound:(n - 1) (fun () ->
        let first = !at in
        at := (if first = 0 then n - 1 else first - 1);
        { Explorer.ports; first; len = n - 1 })

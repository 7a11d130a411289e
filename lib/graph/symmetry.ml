module Pg = Port_graph

type t = {
  autos : int array array;  (* identity first, then by image of node 0 *)
  order : int;
  transitive : bool;
  to_zero : int array;
      (* to_zero.(a) = index into autos of the unique phi with phi.(a) = 0;
         fully populated only when the group is transitive (it is the
         inverse permutation of the map i -> autos.(i).(0)). *)
  of_zero : int array;
      (* of_zero.(c) = index into autos of the unique phi with phi.(0) = c;
         populated under the same condition. *)
}

let check_witness g phi =
  let n = Pg.n g in
  if Array.length phi <> n then Error "witness length differs from node count"
  else begin
    let seen = Array.make n false in
    let err = ref None in
    Array.iteri
      (fun u v ->
        if Option.is_none !err then
          if v < 0 || v >= n then
            err := Some (Printf.sprintf "witness maps node %d out of range (%d)" u v)
          else if seen.(v) then
            err := Some (Printf.sprintf "witness is not injective at image %d" v)
          else seen.(v) <- true)
      phi;
    (match !err with
    | Some _ -> ()
    | None ->
        (* Port preservation at every directed port: following port p
           from phi(u) must land on phi(v) through the same entry port. *)
        let u = ref 0 in
        while Option.is_none !err && !u < n do
          let du = Pg.degree g !u in
          if du <> Pg.degree g phi.(!u) then
            err :=
              Some
                (Printf.sprintf "degree mismatch: node %d has %d ports, image %d has %d"
                   !u du phi.(!u)
                   (Pg.degree g phi.(!u)))
          else begin
            let p = ref 0 in
            while Option.is_none !err && !p < du do
              let v, q = Pg.follow g !u !p in
              let v', q' = Pg.follow g phi.(!u) !p in
              if v' <> phi.(v) || q' <> q then
                err :=
                  Some
                    (Printf.sprintf
                       "port %d at node %d: image follows to (%d,%d), expected (%d,%d)" !p
                       !u v' q' phi.(v) q);
              incr p
            done
          end;
          incr u
        done);
    match !err with Some e -> Error e | None -> Ok ()
  end

(* The unique candidate extension of [phi 0 = target]: propagate
   [phi (neighbor u p) = neighbor (phi u) p] breadth-first, failing on
   any degree, entry-port or consistency clash.  Connectivity (a
   [Port_graph.t] invariant) guarantees full coverage, so a surviving
   candidate is total; [check_witness] then re-proves it from scratch. *)
let automorphism_to g target =
  let n = Pg.n g in
  if Pg.degree g target <> Pg.degree g 0 then None
  else begin
    let phi = Array.make n (-1) in
    phi.(0) <- target;
    let queue = Array.make n 0 in
    let head = ref 0 and tail = ref 1 in
    queue.(0) <- 0;
    let ok = ref true in
    while !ok && !head < !tail do
      let u = queue.(!head) in
      incr head;
      let u' = phi.(u) in
      let du = Pg.degree g u in
      if du <> Pg.degree g u' then ok := false
      else begin
        let p = ref 0 in
        while !ok && !p < du do
          let v, q = Pg.follow g u !p in
          let v', q' = Pg.follow g u' !p in
          if q <> q' then ok := false
          else if phi.(v) = -1 then begin
            phi.(v) <- v';
            queue.(!tail) <- v;
            incr tail
          end
          else if phi.(v) <> v' then ok := false;
          incr p
        done
      end
    done;
    if !ok && !tail = n then
      match check_witness g phi with Ok () -> Some phi | Error _ -> None
    else None
  end

let detect g =
  let n = Pg.n g in
  let identity = Array.init n (fun i -> i) in
  let others =
    List.filter_map (fun t -> automorphism_to g t) (List.init (n - 1) (fun t -> t + 1))
  in
  let autos = Array.of_list (identity :: others) in
  let order = Array.length autos in
  let transitive = order = n in
  let to_zero = Array.make n (-1) and of_zero = Array.make n (-1) in
  Array.iteri
    (fun i phi ->
      (* phi maps phi^-1(0) to 0; record the index under that source. *)
      Array.iteri (fun a v -> if v = 0 then to_zero.(a) <- i) phi;
      of_zero.(phi.(0)) <- i)
    autos;
  { autos; order; transitive; to_zero; of_zero }

let order t = t.order

let transitive t = t.transitive

let reducible t = t.transitive && t.order > 1

let group_name t =
  if t.order = 1 then "trivial"
  else if t.transitive then Printf.sprintf "order-%d" t.order
  else Printf.sprintf "order-%d/intransitive" t.order

let automorphisms t = t.autos

let canon_pair t a b =
  let phi = t.autos.(t.to_zero.(a)) in
  (0, phi.(b))

let from_zero t c = t.autos.(t.of_zero.(c))

let orbit_size t = t.order

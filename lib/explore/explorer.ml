type observation = { degree : int; entry : int option }

type action = Wait | Move of int

type instance = observation -> action

type t = { name : string; bound : int; fresh : unit -> instance }

let make ~name ~bound ~fresh =
  if bound < 0 then invalid_arg "Explorer.make: negative bound";
  (* Count EXPLORE executions at instance creation: one branch per
     execution when instrumentation is off, invisible on the hot
     per-round path. *)
  let fresh () =
    if Rv_obs.Obs.enabled () then Rv_obs.Counter.count "explore.executions" 1;
    fresh ()
  in
  { name; bound; fresh }

(* One shared, immutable [Move p] per port below the table size, built at
   start-up; only a node of larger degree makes [move] allocate. *)
let moves = Array.init 2048 (fun p -> Move p)

let move p = if p >= 0 && p < Array.length moves then Array.unsafe_get moves p else Move p

type slice = { ports : int array; first : int; len : int }

(* An execution's place in its walk: [walk.(next)] is the next move and
   [walk.(stop - 1)] the last.  [stop < 0] until the first step fetches
   the slice. *)
type replay = { mutable walk : int array; mutable next : int; mutable stop : int }

let of_slices ~name ~bound fetch =
  let fresh () =
    let r = { walk = [||]; next = 0; stop = -1 } in
    fun (_ : observation) ->
      if r.stop < 0 then begin
        let s = fetch () in
        if s.len > bound then
          invalid_arg
            (Printf.sprintf "Explorer %s: walk of %d ports exceeds bound %d" name s.len bound);
        if Rv_obs.Obs.enabled () then begin
          Rv_obs.Counter.count "explore.walks" 1;
          Rv_obs.Counter.count "explore.walk_ports" s.len
        end;
        r.walk <- s.ports;
        r.next <- s.first;
        r.stop <- s.first + s.len
      end;
      let i = r.next in
      if i < r.stop then begin
        r.next <- i + 1;
        move r.walk.(i)
      end
      else Wait
  in
  make ~name ~bound ~fresh

let whole ports = { ports; first = 0; len = Array.length ports }

let of_walk_factory ~name ~bound factory =
  of_slices ~name ~bound (fun () -> whole (Array.of_list (factory ())))

let of_map_walks ~name ~bound g walk ~start =
  let position = ref start in
  (* The last walk computed: its start, its ports and its last node. *)
  let from = ref (-1) and ports = ref (whole [||]) and last = ref start in
  of_slices ~name ~bound (fun () ->
      if !position <> !from then begin
        let w = walk ~start:!position in
        ports := whole (Array.of_list w);
        last := Rv_graph.Walk.final g ~start:!position w;
        from := !position
      end;
      position := !last;
      !ports)

let idle ~bound = make ~name:"idle" ~bound ~fresh:(fun () _ -> Wait)

let rename name t = { t with name }

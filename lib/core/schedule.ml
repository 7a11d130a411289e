module Ex = Rv_explore.Explorer

type step = Explore of Ex.t | Pause of int

type t = step list

let duration t =
  List.fold_left
    (fun acc -> function Explore e -> acc + e.Ex.bound | Pause k -> acc + k)
    0 t

let traversal_budget t =
  List.fold_left
    (fun acc -> function Explore e -> acc + e.Ex.bound | Pause _ -> acc)
    0 t

let explorations t =
  List.fold_left (fun acc -> function Explore _ -> acc + 1 | Pause _ -> acc) 0 t

(* Stands in for an explorer instance during a pause. *)
let idle : Ex.instance = fun _ -> Ex.Wait

let to_instance t =
  let remaining = ref t in
  (* The current step: [inst] answers the next [left] rounds ([idle]
     for a pause).  Mutable, so no round allocates. *)
  let inst = ref idle and left = ref 0 in
  (* Deep-mode observability: one span per schedule phase on the calling
     agent's lane.  [phase_open] tracks whether we owe an [end_span]; the
     final phase of a run that meets mid-phase is auto-closed by
     [Rv_obs.Obs.events].  Nothing here runs unless deep mode is on. *)
  let phase_open = ref false in
  let close_phase () =
    if !phase_open then begin
      Rv_obs.Obs.end_span ();
      phase_open := false
    end
  in
  let open_phase name cat args =
    close_phase ();
    Rv_obs.Obs.begin_span ~cat ~args name;
    phase_open := true
  in
  let open_pause k =
    if Rv_obs.Obs.deep () then open_phase "pause" "sim" [ ("rounds", Rv_obs.Json.Int k) ]
  in
  let open_explore e =
    if Rv_obs.Obs.deep () then
      open_phase ("explore:" ^ e.Ex.name) "explore" [ ("bound", Rv_obs.Json.Int e.Ex.bound) ]
  in
  let step obs =
    (* Advance past exhausted steps (or into the first one). *)
    let pending = ref true in
    while !left = 0 && !pending do
      match !remaining with
      | [] -> pending := false
      | Pause k :: rest ->
          remaining := rest;
          inst := idle;
          left := k;
          open_pause k
      | Explore e :: rest ->
          remaining := rest;
          if e.Ex.bound > 0 then begin
            inst := e.Ex.fresh ();
            left := e.Ex.bound;
            open_explore e
          end
    done;
    if !left > 0 then begin
      decr left;
      !inst obs
    end
    else begin
      close_phase ();
      Ex.Wait
    end
  in
  step

let repeat k t =
  if k < 1 then invalid_arg "Schedule.repeat: k must be >= 1";
  List.concat (List.init k (fun _ -> t))

let blocks ~explorer pattern =
  List.map
    (fun active ->
      if active then Explore explorer else Pause explorer.Ex.bound)
    pattern

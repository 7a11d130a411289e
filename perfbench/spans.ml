(* The traced run's span store.  A span has a name, the layer it is
   charged to, start and end (microseconds), a parent span and a shared
   id: the sweep index for sweeps, the request id for serving.  Spans
   stay in memory; the Chrome trace and the layer table are written from
   them at exit. *)

type span = {
  name : string;
  layer : string;
  t0 : float;
  t1 : float;
  parent : int;  (** index of the parent span, [-1] for a root *)
  id : int;
  lane : int;  (** Chrome thread; overlapping roots go on different lanes *)
}

type t = { mutable spans : span array; mutable n : int }

let create () = { spans = [||]; n = 0 }

let now_us () = Unix.gettimeofday () *. 1e6

let add t ?(parent = -1) ?lane ~name ~layer ~id t0 t1 =
  let lane =
    match lane with Some l -> l | None -> if parent >= 0 then t.spans.(parent).lane else 0
  in
  if t.n = Array.length t.spans then begin
    let bigger =
      Array.make (max 64 (2 * t.n))
        { name = ""; layer = ""; t0 = 0.; t1 = 0.; parent = -1; id = 0; lane = 0 }
    in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  t.spans.(t.n) <- { name; layer; t0; t1 = Float.max t0 t1; parent; id; lane };
  t.n <- t.n + 1;
  t.n - 1

(* Time [f] as a span.  The span's index is reserved before [f] runs so
   children recorded inside can name it as their parent. *)
let record t ?parent ?lane ~name ~layer ~id f =
  let sid = add t ?parent ?lane ~name ~layer ~id 0. 0. in
  let t0 = now_us () in
  let r = f sid in
  let t1 = now_us () in
  t.spans.(sid) <- { (t.spans.(sid)) with t0; t1 };
  r

let get t i = t.spans.(i)
let count t = t.n
let dur s = s.t1 -. s.t0

(* Attach flat, same-lane intervals (name, layer, t0, t1) under [parent]
   by containment: each interval's parent is the innermost earlier
   interval that contains it, or [parent].  Returns the new indices. *)
let nest t ~parent ~id items =
  let items =
    List.stable_sort
      (fun (_, _, a0, a1) (_, _, b0, b1) ->
        match Float.compare a0 b0 with 0 -> Float.compare b1 a1 | c -> c)
      items
  in
  let stack = ref [] in
  List.map
    (fun (name, layer, t0, t1) ->
      let rec open_parent = function
        | (p, p1) :: rest -> if t1 <= p1 +. 1e-3 then p else open_parent rest
        | [] -> parent
      in
      stack := List.filter (fun (_, p1) -> t0 < p1) !stack;
      let p = open_parent !stack in
      let sid = add t ~parent:p ~name ~layer ~id t0 t1 in
      stack := (sid, t1) :: !stack;
      sid)
    items

(* Self time of every span: its duration minus the union of its
   children's intervals, clipped to its own. *)
let self_times t =
  let kids = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.spans.(i).parent in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  Array.init t.n (fun i ->
      let s = t.spans.(i) in
      let ivs =
        List.map (fun k -> (Float.max s.t0 t.spans.(k).t0, Float.min s.t1 t.spans.(k).t1)) kids.(i)
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) ivs
      in
      dur s -. covered)

type row = { r_layer : string; self_us : float; calls : int }

(* Per-layer self time and call count of the spans [keep] selects, in
   first-appearance order. *)
let by_layer ?(keep = fun _ -> true) t =
  let self = self_times t in
  let rows = ref [] in
  for i = t.n - 1 downto 0 do
    let l = t.spans.(i).layer in
    if keep t.spans.(i) then
      match List.assoc_opt l !rows with
      | Some (s, c) ->
          rows := (l, (s +. self.(i), c + 1)) :: List.remove_assoc l !rows
      | None -> rows := (l, (self.(i), 1)) :: !rows
  done;
  let order = ref [] in
  for i = 0 to t.n - 1 do
    let l = t.spans.(i).layer in
    if keep t.spans.(i) && not (List.mem l !order) then order := l :: !order
  done;
  List.rev_map
    (fun l ->
      let s, c = List.assoc l !rows in
      { r_layer = l; self_us = s; calls = c })
    !order

(* Chrome trace-event JSON ("X" complete events), loadable by Perfetto
   and chrome://tracing.  Timestamps are rebased to the first span. *)
let chrome t ~process =
  let module J = Rv_obs.Json in
  let base = ref infinity in
  for i = 0 to t.n - 1 do
    base := Float.min !base t.spans.(i).t0
  done;
  let ev i =
    let s = t.spans.(i) in
    J.Obj
      [
        ("name", J.Str s.name);
        ("cat", J.Str s.layer);
        ("ph", J.Str "X");
        ("ts", J.Float (s.t0 -. !base));
        ("dur", J.Float (dur s));
        ("pid", J.Int 1);
        ("tid", J.Int s.lane);
        ("args", J.Obj [ ("id", J.Int s.id); ("span", J.Int i); ("parent", J.Int s.parent) ]);
      ]
  in
  J.Obj
    [
      ( "traceEvents",
        J.List
          (J.Obj
             [
               ("name", J.Str "process_name");
               ("ph", J.Str "M");
               ("pid", J.Int 1);
               ("tid", J.Int 0);
               ("args", J.Obj [ ("name", J.Str process) ]);
             ]
          :: List.init t.n ev) );
      ("displayTimeUnit", J.Str "ms");
    ]

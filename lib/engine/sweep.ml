(* Per-task latency lands in the "engine.task_us" histogram when
   instrumentation is on; the wrapper is chosen once per map, so the
   disabled path adds a single branch per [map_array], not per task. *)
let timed n f =
  if n > 0 && Rv_obs.Obs.enabled () then begin
    let hist = Rv_obs.Histogram.find "engine.task_us" in
    fun i ->
      let t0 = Rv_obs.Obs.now_us () in
      let r = f i in
      Rv_obs.Histogram.observe_t hist (int_of_float (Rv_obs.Obs.now_us () -. t0));
      r
  end
  else f

let sequential n f =
  if n = 0 then [||]
  else begin
    let a = Array.make n (f 0) in
    for i = 1 to n - 1 do
      a.(i) <- f i
    done;
    a
  end

let map_array ?pool ?chunk n f =
  if n < 0 then invalid_arg "Sweep.map_array: negative size";
  let f = timed n f in
  let jobs = match pool with Some p -> Pool.jobs p | None -> 1 in
  Rv_obs.Obs.span ~cat:"engine"
    ~args:[ ("n", Rv_obs.Json.Int n); ("jobs", Rv_obs.Json.Int jobs) ]
    "sweep.map_array"
    (fun () ->
      match pool with
      | Some p when Pool.jobs p > 1 && n > 1 ->
          (* Each slot is written by exactly one task and read only after the
             pool's completion latch, so the option array needs no lock. *)
          let slots = Array.make n None in
          Pool.run p ?chunk ~total:n (fun i -> slots.(i) <- Some (f i));
          Array.map (function Some v -> v | None -> assert false) slots
      | Some _ | None -> sequential n f)

let map_nested ?pool ?chunk counts f =
  let outers = Array.length counts in
  let total = Array.fold_left (fun acc c ->
      if c < 0 then invalid_arg "Sweep.map_nested: negative count";
      acc + c) 0 counts
  in
  (* Flatten the ragged (outer, inner) space onto one task index space so
     the pool balances across outers of very different sizes — an
     orbit-reduced sweep can concentrate most of its work in a few
     outers.  The subtask count is [total], fixed by [counts] alone, so
     the task decomposition (and hence the result) is identical for
     every pool size. *)
  let outer_of = Array.make (max total 1) 0 in
  let off = Array.make (outers + 1) 0 in
  for o = 0 to outers - 1 do
    off.(o + 1) <- off.(o) + counts.(o);
    Array.fill outer_of off.(o) counts.(o) o
  done;
  let flat = map_array ?pool ?chunk total (fun k ->
      let o = outer_of.(k) in
      f o (k - off.(o)))
  in
  Array.init outers (fun o -> Array.sub flat off.(o) counts.(o))

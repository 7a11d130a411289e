type t = {
  total : int;
  completed : int Atomic.t;
  worst_time : int Atomic.t;
  worst_cost : int Atomic.t;
  started : float;
}

let create ?(total = 0) () =
  {
    total;
    completed = Atomic.make 0;
    worst_time = Atomic.make 0;
    worst_cost = Atomic.make 0;
    (* rv_lint: allow R1 -- progress display is wall time by design; never feeds results *)
    started = Unix.gettimeofday ();
  }

let tick t = Atomic.incr t.completed

let observe t ~time ~cost =
  Rv_obs.Histogram.atomic_max t.worst_time time;
  Rv_obs.Histogram.atomic_max t.worst_cost cost

let completed t = Atomic.get t.completed
let worst_time t = Atomic.get t.worst_time
let worst_cost t = Atomic.get t.worst_cost
(* rv_lint: allow R1 -- elapsed wall time drives the progress display only *)
let elapsed t = Unix.gettimeofday () -. t.started

let throughput t =
  let e = elapsed t in
  if e <= 0. then 0. else float_of_int (completed t) /. e

let eta t =
  let done_ = completed t in
  if t.total <= 0 || done_ <= 0 || done_ >= t.total then None
  else
    let rate = throughput t in
    if rate <= 0. then None else Some (float_of_int (t.total - done_) /. rate)

let report t =
  let tasks =
    if t.total > 0 then Printf.sprintf "%d/%d tasks" (completed t) t.total
    else Printf.sprintf "%d tasks" (completed t)
  in
  let pace =
    let tp = throughput t in
    if tp <= 0. then ""
    else
      match eta t with
      | Some s -> Printf.sprintf ", %.1f tasks/s, ETA %.1fs" tp s
      | None -> Printf.sprintf ", %.1f tasks/s" tp
  in
  Printf.sprintf "%s, worst time %d, worst cost %d, %.2fs elapsed%s" tasks
    (worst_time t) (worst_cost t) (elapsed t) pace

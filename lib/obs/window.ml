type slot = {
  epoch : int Atomic.t;  (* the absolute second this slot holds; -1 = empty *)
  cells : int Atomic.t array;  (* Histogram.nbuckets log2 buckets *)
  s_n : int Atomic.t;
  s_sum : int Atomic.t;
  s_max : int Atomic.t;
}

type t = { slots : slot array }

type stats = {
  w_count : int;
  w_sum : int;
  w_max : int;
  w_p50 : int;
  w_p90 : int;
  w_p99 : int;
}

let empty_stats =
  { w_count = 0; w_sum = 0; w_max = 0; w_p50 = 0; w_p90 = 0; w_p99 = 0 }

let max_horizon_s = 300

(* Enough slots that the largest horizon (5m) plus a margin of slack
   seconds never wraps onto a slot that is still inside the horizon. *)
let default_slots = max_horizon_s + 30

let create ?(slots = default_slots) () =
  {
    slots =
      Array.init (max slots (max_horizon_s + 2)) (fun _ ->
          {
            epoch = Atomic.make (-1);
            cells = Array.init Histogram.nbuckets (fun _ -> Atomic.make 0);
            s_n = Atomic.make 0;
            s_sum = Atomic.make 0;
            s_max = Atomic.make 0;
          });
  }

let observe t ~now_s v =
  let now_s = max 0 now_s in
  let slot = t.slots.(now_s mod Array.length t.slots) in
  let e = Atomic.get slot.epoch in
  if e <> now_s then
    (* First observer of a new second claims the slot and clears it.  A
       racing observer straddling the boundary may land its increment in
       the cleared slot or lose it to the clear — at most a handful of
       samples per rotation, acceptable for monitoring stats. *)
    if Atomic.compare_and_set slot.epoch e now_s then begin
      Array.iter (fun c -> Atomic.set c 0) slot.cells;
      Atomic.set slot.s_n 0;
      Atomic.set slot.s_sum 0;
      Atomic.set slot.s_max 0
    end;
  ignore (Atomic.fetch_and_add slot.cells.(Histogram.bucket_of v) 1);
  ignore (Atomic.fetch_and_add slot.s_n 1);
  ignore (Atomic.fetch_and_add slot.s_sum v);
  Histogram.atomic_max slot.s_max v

(* The bucket holding the nearest-rank sample (rank ceil(p*n), as in
   Rv_util.Stats.percentile), reported as its upper bound clamped to the
   largest value seen: exact in the top bucket, 2x-coarse below it. *)
let percentile_of_cells cells ~n ~maxv p =
  if n = 0 then 0
  else begin
    let p = Float.min 1. (Float.max 0. p) in
    let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
    let rec go i acc =
      if i >= Histogram.nbuckets then maxv
      else begin
        let acc = acc + cells.(i) in
        if acc >= rank then
          if i = 0 then 0 else min (snd (Histogram.bucket_bounds i)) maxv
        else go (i + 1) acc
      end
    in
    go 0 0
  end

let stats_many ts ~now_s ~horizon_s =
  let cells = Array.make Histogram.nbuckets 0 in
  let n = ref 0 and sum = ref 0 and maxv = ref 0 in
  List.iter
    (fun t ->
      let horizon_s = min (max 1 horizon_s) (Array.length t.slots - 2) in
      let lo = now_s - horizon_s in
      Array.iter
        (fun slot ->
          let e = Atomic.get slot.epoch in
          if e > lo && e <= now_s then begin
            for i = 0 to Histogram.nbuckets - 1 do
              cells.(i) <- cells.(i) + Atomic.get slot.cells.(i)
            done;
            n := !n + Atomic.get slot.s_n;
            sum := !sum + Atomic.get slot.s_sum;
            maxv := max !maxv (Atomic.get slot.s_max)
          end)
        t.slots)
    ts;
  (* Clearing a slot races its own counters, so the bucket total and s_n
     can disagree transiently at a rotation; trust the buckets. *)
  let n = max !n (Array.fold_left ( + ) 0 cells) in
  {
    w_count = n;
    w_sum = !sum;
    w_max = !maxv;
    w_p50 = percentile_of_cells cells ~n ~maxv:!maxv 0.5;
    w_p90 = percentile_of_cells cells ~n ~maxv:!maxv 0.9;
    w_p99 = percentile_of_cells cells ~n ~maxv:!maxv 0.99;
  }

let stats t ~now_s ~horizon_s = stats_many [ t ] ~now_s ~horizon_s

let nbuckets = 63

type t = {
  name : string;
  cells : int Atomic.t array;  (* length [nbuckets] *)
  total : int Atomic.t;
  n : int Atomic.t;
  max_seen : int Atomic.t;
}

let registry_mutex = Mutex.create ()

(* rv_lint: allow R3 -- every access goes through registry_mutex *)
let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let find name =
  Mutex.lock registry_mutex;
  let h =
    match Hashtbl.find_opt registry name with
    | Some h -> h
    | None ->
        let h =
          {
            name;
            cells = Array.init nbuckets (fun _ -> Atomic.make 0);
            total = Atomic.make 0;
            n = Atomic.make 0;
            max_seen = Atomic.make 0;
          }
        in
        Hashtbl.add registry name h;
        h
  in
  Mutex.unlock registry_mutex;
  h

(* Bucket of v > 0 is 1 + floor(log2 v): the position of its highest set
   bit, capped so absurd values land in the last bucket. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 0 do
      incr b;
      x := !x lsr 1
    done;
    min !b (nbuckets - 1)
  end

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

let observe_t t v =
  ignore (Atomic.fetch_and_add t.cells.(bucket_of v) 1);
  ignore (Atomic.fetch_and_add t.total v);
  ignore (Atomic.fetch_and_add t.n 1);
  atomic_max t.max_seen v

let observe name v = if Obs.enabled () then observe_t (find name) v

let name t = t.name
let count t = Atomic.get t.n
let sum t = Atomic.get t.total
let mean t = if count t = 0 then 0. else float_of_int (sum t) /. float_of_int (count t)
let max_value t = Atomic.get t.max_seen

let bucket_bounds i =
  if i <= 0 then (min_int, 0) else (1 lsl (i - 1), (1 lsl i) - 1)

let buckets t =
  let out = ref [] in
  for i = nbuckets - 1 downto 0 do
    let c = Atomic.get t.cells.(i) in
    if c > 0 then begin
      let lo, hi = bucket_bounds i in
      out := (lo, hi, c) :: !out
    end
  done;
  !out

let all () =
  Mutex.lock registry_mutex;
  let xs = Hashtbl.fold (fun _ h acc -> h :: acc) registry [] in
  Mutex.unlock registry_mutex;
  List.sort (fun a b -> String.compare a.name b.name) xs

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.reset registry;
  Mutex.unlock registry_mutex

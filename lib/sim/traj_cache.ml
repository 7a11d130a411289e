(* Keys are (label, start) pairs; the generation id scopes them to one
   sweep.  The table uses an explicit typed hash (R4: no polymorphic
   hashing of structured keys), and lives in Domain.DLS so each engine
   worker owns its table outright.

   Memory is bounded per domain: trajectories of long schedules (Cheap
   at large L runs to O(L*E) rounds) would otherwise accumulate to
   gigabytes across a sweep's label/start cross product.  A
   second-chance scheme keeps two generations — when the current
   table's retained rounds exceed the budget it becomes the previous
   generation (dropping the one before it), and entries still being
   touched are promoted back on access — so hot walks survive rotation
   while cold ones are reclaimed by the GC.  Eviction is invisible to
   results: builds are pure, so a rebuild returns the same arrays. *)
module Tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (l1, s1) (l2, s2) = l1 = l2 && s1 = s2

  let hash (l, s) = (l * 0x9E3779B1) lxor s
end)

let default_budget_rounds = 2_000_000

(* Process-wide accounting, always on (unlike the Obs counters below,
   which only tick when observation is enabled): `rv sweep --stats`
   reports hit ratios without paying for a trace.  One fetch_and_add
   per lookup — negligible next to even a memoized scan. *)
type stats = { hits : int; misses : int }

let hit_count = Atomic.make 0

let miss_count = Atomic.make 0

let stats () = { hits = Atomic.get hit_count; misses = Atomic.get miss_count }

let reset_stats () =
  Atomic.set hit_count 0;
  Atomic.set miss_count 0

type ctx = { id : int; budget : int; build : label:int -> start:int -> Traj.t }

let next_id = Atomic.make 0

type slot = {
  mutable owner : int;
  mutable cur : Traj.t Tbl.t;
  mutable prev : Traj.t Tbl.t;
  mutable cur_rounds : int;
}

let slot_key =
  Domain.DLS.new_key (fun () ->
      { owner = -1; cur = Tbl.create 64; prev = Tbl.create 0; cur_rounds = 0 })

let create ?(budget_rounds = default_budget_rounds) ~build () =
  { id = Atomic.fetch_and_add next_id 1; budget = max 1 budget_rounds; build }

let add_current ctx slot key t =
  Tbl.add slot.cur key t;
  slot.cur_rounds <- slot.cur_rounds + t.Traj.rounds + 1;
  if slot.cur_rounds > ctx.budget then begin
    slot.prev <- slot.cur;
    slot.cur <- Tbl.create 64;
    slot.cur_rounds <- 0
  end

let get ctx ~label ~start =
  let slot = Domain.DLS.get slot_key in
  if slot.owner <> ctx.id then begin
    slot.cur <- Tbl.create 64;
    slot.prev <- Tbl.create 0;
    slot.cur_rounds <- 0;
    slot.owner <- ctx.id
  end;
  let key = (label, start) in
  match Tbl.find_opt slot.cur key with
  | Some t ->
      ignore (Atomic.fetch_and_add hit_count 1);
      if Rv_obs.Obs.enabled () then Rv_obs.Counter.count "traj.cache_hits" 1;
      t
  | None -> (
      match Tbl.find_opt slot.prev key with
      | Some t ->
          (* Second chance: still hot, promote into the current
             generation so the next rotation keeps it. *)
          Tbl.remove slot.prev key;
          add_current ctx slot key t;
          ignore (Atomic.fetch_and_add hit_count 1);
          if Rv_obs.Obs.enabled () then Rv_obs.Counter.count "traj.cache_hits" 1;
          t
      | None ->
          ignore (Atomic.fetch_and_add miss_count 1);
          if Rv_obs.Obs.enabled () then Rv_obs.Counter.count "traj.cache_misses" 1;
          let t =
            Rv_obs.Obs.span ~cat:"traj"
              ~args:[ ("label", Rv_obs.Json.Int label); ("start", Rv_obs.Json.Int start) ]
              "traj.build"
              (fun () -> ctx.build ~label ~start)
          in
          (* [build] may have called [get] and rotated the generations;
             add_current reads [slot.cur] afresh. *)
          add_current ctx slot key t;
          t)

module Pg = Rv_graph.Port_graph
module Ex = Rv_explore.Explorer

type t = {
  start : int;
  rounds : int;
  pos : int array;
  port : int array;
  moves : int array;
  segs : int array;
  seg_node : int array;
}

(* The segment table: [stride] ints per segment [s], at [stride * s]:
   its first round, its last round, the agent's move count during it,
   and [base], which maps a round [r] of the run after [s] to its stored
   index [r + base].  Segment 0 starts at round 0 and, for the scan,
   stands for every round before it too; the last segment ends at
   [max_int]. *)
let stride = 4

(* The annotations keep these int-array reads free of the float-array
   check a polymorphic [Array.unsafe_get] compiles to. *)
let[@inline] seg_last (segs : int array) s = Array.unsafe_get segs ((stride * s) + 1)
let[@inline] seg_cost (segs : int array) s = Array.unsafe_get segs ((stride * s) + 2)
let[@inline] seg_base (segs : int array) s = Array.unsafe_get segs ((stride * s) + 3)

(* The first round of segment [s + 1]: one past the end of the run after
   segment [s].  Only asked of a segment with a run after it. *)
let[@inline] next_first (segs : int array) s = Array.unsafe_get segs (stride * (s + 1))

(* Forward from segment [s], the segment whose piece (itself, or the run
   after it) holds round [r].  Callers move monotonically through the
   rounds, so the walk costs O(1) amortized per segment. *)
let[@inline] seek (segs : int array) last s r =
  let s = ref s in
  while !s < last && next_first segs !s <= r do
    incr s
  done;
  !s

type block = Still of int | Run of Ex.instance * int

(* Observations are immutable, so no walker allocates one per round:
   every (node, entry port) view an agent can have is built once per
   graph.  [tbl.(u).(0)] is what an agent sees at [u] on a fresh step or
   after a wait; [tbl.(u).(q + 1)] after entering [u] through port [q]. *)
type observations = { graph : Pg.t; tbl : Ex.observation array array }

let observations g =
  {
    graph = g;
    tbl =
      Array.init (Pg.n g) (fun u ->
          let degree = Pg.degree g u in
          Array.init (degree + 1) (fun e ->
              { Ex.degree; entry = (if e = 0 then None else Some (e - 1)) }));
  }

(* Walker state: the agent's node, the port it entered through ([-1]
   after a wait, or before its first move), and the port it took in the
   last round ([-1]: it waited). *)
type cursor = { mutable node : int; mutable entry : int; mutable taken : int }

let cursor start = { node = start; entry = -1; taken = -1 }

let invalid_port u p degree =
  invalid_arg
    (Printf.sprintf "Traj.of_blocks: agent chose invalid port %d at node %d (degree %d)"
       p u degree)

(* One active round: observe, choose, validate, follow.  Every block
   walker steps through here, so they cannot drift apart. *)
let[@inline] advance obs step c =
  let u = c.node in
  let row = obs.tbl.(u) in
  match step row.(c.entry + 1) with
  | Ex.Wait ->
      c.entry <- -1;
      c.taken <- -1
  | Ex.Move p ->
      let degree = Array.length row - 1 in
      if p < 0 || p >= degree then invalid_port u p degree;
      let v, q = Pg.follow obs.graph u p in
      c.node <- v;
      c.entry <- q;
      c.taken <- p

let block_rounds blocks =
  List.fold_left
    (fun acc b ->
      let k = match b with Still k -> k | Run (_, k) -> k in
      if k < 0 then invalid_arg "Traj.of_blocks: negative block length";
      acc + k)
    0 blocks

let of_blocks ?obs ~g ~start blocks =
  let obs =
    match obs with
    | None -> observations g
    | Some o ->
        if o.graph != g then invalid_arg "Traj.of_blocks: observations of another graph";
        o
  in
  (* Shape first: the stored rounds are the [Run] rounds, and every run
     (a maximal stretch of non-empty [Run] blocks) is followed by one
     segment, so zero-length blocks of either kind merge away. *)
  let rounds = block_rounds blocks in
  let stored = ref 0 and runs = ref 0 and after_run = ref false in
  List.iter
    (function
      | Run (_, k) when k > 0 ->
          stored := !stored + k;
          if not !after_run then incr runs;
          after_run := true
      | Still k when k > 0 -> after_run := false
      | Run _ | Still _ -> ())
    blocks;
  let pos = Array.make !stored 0 in
  let port = Array.make !stored 0 in
  let moves = Array.make !stored 0 in
  let segs = Array.make (stride * (!runs + 1)) 0 in
  let seg_node = Array.make (!runs + 1) start in
  let c = cursor start in
  let r = ref 0 and i = ref 0 and s = ref 0 and cost = ref 0 and in_run = ref false in
  (* A run ends: the segment after it opens on the next round, at the
     node and move count the run left. *)
  let close_run () =
    in_run := false;
    incr s;
    let at = stride * !s in
    segs.(at) <- !r + 1;
    segs.(at + 2) <- !cost;
    seg_node.(!s) <- c.node
  in
  List.iter
    (function
      | Still k ->
          if k > 0 then begin
            if !in_run then close_run ();
            c.entry <- -1;
            r := !r + k
          end
      | Run (step, k) ->
          if k > 0 && not !in_run then begin
            in_run := true;
            segs.((stride * !s) + 1) <- !r;
            segs.((stride * !s) + 3) <- !i - (!r + 1)
          end;
          for _ = 1 to k do
            incr r;
            advance obs step c;
            pos.(!i) <- c.node;
            port.(!i) <- c.taken;
            if c.taken >= 0 then incr cost;
            moves.(!i) <- !cost;
            incr i
          done)
    blocks;
  if !in_run then close_run ();
  segs.((stride * !s) + 1) <- max_int;
  { start; rounds; pos; port; moves; segs; seg_node }

let of_schedule ~g ~start ~rounds step =
  if rounds < 0 then invalid_arg "Traj.of_schedule: negative rounds";
  of_blocks ~g ~start [ Run (step, rounds) ]

let stored t = Array.length t.pos + Array.length t.seg_node

(* The segment, from [s] on, whose piece holds [t]'s round [r]. *)
let piece t s r = seek t.segs (Array.length t.seg_node - 1) s r

(* [t]'s move count after its round [r], with [s] a segment at or before
   the one holding [r]. *)
let cost_from t s r =
  if r <= 0 then 0
  else
    let s = piece t s r in
    if r <= seg_last t.segs s then seg_cost t.segs s else t.moves.(r + seg_base t.segs s)

let cost_at t r = cost_from t 0 r

let pos_at t r =
  if r <= 0 then t.start
  else
    let s = piece t 0 r in
    if r <= seg_last t.segs s then t.seg_node.(s) else t.pos.(r + seg_base t.segs s)

let port_at t r =
  if r <= 0 then -1
  else
    let s = piece t 0 r in
    if r <= seg_last t.segs s then -1 else t.port.(r + seg_base t.segs s)

(* A walker at [node] whose first observation has entry port [entry]. *)
let entry_cursor obs ~node ~entry =
  let e =
    match entry with
    | None -> -1
    | Some q ->
        let degree = Array.length obs.tbl.(node) - 1 in
        if q < 0 || q >= degree then
          invalid_arg
            (Printf.sprintf "Traj: entry port %d at node %d (degree %d)" q node degree);
        q
  in
  { node; entry = e; taken = -1 }

let execution_ports obs ~node ~entry step ~rounds =
  if rounds < 0 then invalid_arg "Traj.execution_ports: negative rounds";
  let c = entry_cursor obs ~node ~entry in
  Array.init rounds (fun _ ->
      advance obs step c;
      c.taken)

let takes_ports obs ~node ~entry step ports =
  let c = entry_cursor obs ~node ~entry in
  let ok = ref true and r = ref 0 in
  while !ok && !r < Array.length ports do
    advance obs step c;
    ok := c.taken = ports.(!r);
    incr r
  done;
  !ok

let image phi t =
  let src = t.pos and nodes = t.seg_node in
  let pos = Array.make (Array.length src) 0 in
  for i = 0 to Array.length src - 1 do
    pos.(i) <- phi.(src.(i))
  done;
  let seg_node = Array.make (Array.length nodes) 0 in
  for s = 0 to Array.length nodes - 1 do
    seg_node.(s) <- phi.(nodes.(s))
  done;
  { t with start = phi.(t.start); pos; seg_node }

type meeting = {
  met : bool;
  meeting_round : int option;
  meeting_node : int option;
  cost : int;
  cost_a : int;
  cost_b : int;
  rounds_run : int;
  crossings : int;
}

(* First round in [r1, r2] where [pos.(r - d)] equals [node]; 0 if none.
   The caller guarantees r - d is in bounds across the whole range.  This
   is the workhorse of the scan below: whenever one agent is pinned in a
   segment, finding a meeting degenerates to scanning the other agent's
   stored positions for a constant.  The int annotations matter: left
   polymorphic, each round pays a float-array check and a [caml_equal]
   call. *)
let scan_const (pos : int array) d r1 r2 (node : int) =
  let r = ref r1 and found = ref 0 in
  while !found = 0 && !r <= r2 do
    if Array.unsafe_get pos (!r - d) = node then found := !r else incr r
  done;
  !found

(* The shared scan behind {!meet} and {!meet_intervals}.  [from] is the
   round the detection window opens: meetings and crossings in rounds
   [<= from] are invisible.  The waiting model opens at 0 (both agents
   count from round 1); the parachute model opens at the later
   normalized delay — before that round the sleeping agent has not been
   placed, so co-location does not end the run (Sim.present).

   The scan walks pieces of constant agent state instead of single
   rounds.  Shifted by its delay, each agent alternates between segments,
   where it is pinned at one node (asleep, pausing, or finished), and
   runs, where it follows its stored rounds.  A window is a maximal
   stretch of rounds crossing no piece boundary of either agent:
   - a pinned pair can only meet at the window's first detectable round,
     because their nodes are fixed.  In the waiting model that round was
     already compared at the end of the previous window, since an agent
     entering a segment stands on its node the round before.  In the
     parachute model it is the placement round of the later agent;
   - a pinned/active pair reduces to scanning one position array for a
     constant ([scan_const]), with no crossing possible, since the
     pinned agent takes no port;
   - only active/active windows run the full meeting-plus-crossing loop.
   Equivalence with the round-by-round reference simulator is
   property-tested in test/test_traj.ml for both models.

   Returns [(round, node, crossings, cost_a, cost_b)] with [node = -1]
   when no meeting was found (nodes are non-negative; the sentinel keeps
   the loop free of option allocations — this is the hottest loop in the
   tree, R8).  The move counts are read at the final round from the
   pieces the scan ended in. *)
let meet_scan ~a ~b ~da ~db ~horizon ~from =
  let segs_a = a.segs and segs_b = b.segs in
  let last_a = Array.length a.seg_node - 1 and last_b = Array.length b.seg_node - 1 in
  let pos_a = a.pos and pos_b = b.pos in
  let port_a = a.port and port_b = b.port in
  let crossings = ref 0 in
  let meet_node = ref (-1) in
  let r = ref (if from < horizon then from else horizon) in
  (* Each agent's current piece: segment [s_x], or the run after it when
     [run_x], whose absolute round [x] is stored at index [x - off_x].
     It lasts through absolute round [end_x]; [-1] forces the first
     lookup.  A piece is looked up only when the previous one ends. *)
  let sa = ref 0 and run_a = ref false and off_a = ref 0 and end_a = ref (-1) in
  let sb = ref 0 and run_b = ref false and off_b = ref 0 and end_b = ref (-1) in
  while !r < horizon && !meet_node < 0 do
    let lo = !r in
    if lo >= !end_a then begin
      let q = lo + 1 - da in
      sa := seek segs_a last_a !sa q;
      run_a := q > seg_last segs_a !sa;
      off_a := da - seg_base segs_a !sa;
      let e = if !run_a then next_first segs_a !sa - 1 else seg_last segs_a !sa in
      (* A final segment's [max_int] never shifts past the horizon. *)
      end_a := if e < horizon - da then e + da else horizon
    end;
    if lo >= !end_b then begin
      let q = lo + 1 - db in
      sb := seek segs_b last_b !sb q;
      run_b := q > seg_last segs_b !sb;
      off_b := db - seg_base segs_b !sb;
      let e = if !run_b then next_first segs_b !sb - 1 else seg_last segs_b !sb in
      end_b := if e < horizon - db then e + db else horizon
    end;
    let hi = if !end_a < !end_b then !end_a else !end_b in
    if not (!run_a || !run_b) then begin
      let na = a.seg_node.(!sa) and nb = b.seg_node.(!sb) in
      if na = nb then begin
        (* With [from = 0] this is unreachable from distinct starts — a
           pinned pair on the same node was co-located one round earlier,
           which a previous window already detected.  With a positive
           [from] it is the parachute placement meeting: the later agent
           lands on (or finishes next to) a pinned partner. *)
        r := lo + 1;
        meet_node := na
      end
      else r := hi
    end
    else if not (!run_a && !run_b) then begin
      let node = if !run_b then a.seg_node.(!sa) else b.seg_node.(!sb) in
      let f =
        if !run_b then scan_const pos_b !off_b (lo + 1) hi node
        else scan_const pos_a !off_a (lo + 1) hi node
      in
      if f > 0 then begin
        r := f;
        meet_node := node
      end
      else r := hi
    end
    else begin
      let oa = !off_a and ob = !off_b in
      (* The positions after round [lo]: stored, unless round [lo + 1]
         opens the run, when it is the node of the segment before. *)
      let prev_a =
        ref (if lo - da > seg_last segs_a !sa then pos_a.(lo - oa) else a.seg_node.(!sa))
      in
      let prev_b =
        ref (if lo - db > seg_last segs_b !sb then pos_b.(lo - ob) else b.seg_node.(!sb))
      in
      while !r < hi && !meet_node < 0 do
        incr r;
        let la = !r - oa and lb = !r - ob in
        let pa = Array.unsafe_get pos_a la and pb = Array.unsafe_get pos_b lb in
        if
          pa = !prev_b && pb = !prev_a
          && Array.unsafe_get port_a la >= 0
          && Array.unsafe_get port_b lb >= 0
        then incr crossings;
        if pa = pb then meet_node := pa
        else begin
          prev_a := pa;
          prev_b := pb
        end
      done
    end
  done;
  (* Move counts at the final round, from the current pieces. *)
  let r = !r in
  let cost_a = cost_from a !sa (r - da) and cost_b = cost_from b !sb (r - db) in
  (r, !meet_node, !crossings, cost_a, cost_b)

let meet_with ~span ~from_of ~a ~b ~delay_a ~delay_b ~max_rounds =
  if a.start = b.start then invalid_arg "Traj.meet: agents must start at distinct nodes";
  if delay_a < 0 || delay_b < 0 then invalid_arg "Traj.meet: negative delay";
  (* Same normalization as Sim.run: the first [min delay] rounds are
     silent (both agents asleep at distinct nodes), so skip them in the
     scan and add them back to every reported round. *)
  let skip = max 0 (min (min delay_a delay_b) max_rounds) in
  let da = delay_a - skip and db = delay_b - skip in
  let horizon = max 0 (max_rounds - skip) in
  let scan () =
    let r, node, crossings, cost_a, cost_b =
      meet_scan ~a ~b ~da ~db ~horizon ~from:(from_of ~da ~db)
    in
    if Rv_obs.Obs.enabled () then Rv_obs.Histogram.observe "traj.scan_rounds" r;
    if node >= 0 then
      {
        met = true;
        meeting_round = Some (r + skip);
        meeting_node = Some node;
        cost = cost_a + cost_b;
        cost_a;
        cost_b;
        rounds_run = r + skip;
        crossings;
      }
    else
      {
        met = false;
        meeting_round = None;
        meeting_node = None;
        cost = cost_a + cost_b;
        cost_a;
        cost_b;
        rounds_run = r + skip;
        crossings;
      }
  in
  if Rv_obs.Obs.enabled () then
    Rv_obs.Obs.span ~cat:"traj"
      ~args:
        [
          ("delay_a", Rv_obs.Json.Int delay_a);
          ("delay_b", Rv_obs.Json.Int delay_b);
          ("max_rounds", Rv_obs.Json.Int max_rounds);
        ]
      span scan
  else scan ()

let waiting_from ~da:_ ~db:_ = 0

(* Parachute: the later agent is placed at the end of round [max da db]
   (normalized), and Sim.run's first presence-gated comparison is after
   the moves of the following round — so the detection window opens at
   exactly that boundary. *)
let parachute_from ~da ~db = if da > db then da else db

let meet ~a ~b ~delay_a ~delay_b ~max_rounds =
  meet_with ~span:"traj.scan" ~from_of:waiting_from ~a ~b ~delay_a ~delay_b ~max_rounds

let meet_intervals ~a ~b ~delay_a ~delay_b ~max_rounds =
  meet_with ~span:"traj.scan_intervals" ~from_of:parachute_from ~a ~b ~delay_a ~delay_b
    ~max_rounds

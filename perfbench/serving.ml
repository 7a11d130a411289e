(* serve-hot and serve-cold: an `rv serve` process (one job, telemetry on,
   8 MiB LRU, queue cap 64) answering from a baked index, driven over its
   wire protocol by this process's single client thread on two
   connections with a fixed number of requests in flight on each. *)

module P = Rv_serve.Proto
module H = Rv_serve.Handler
module Key = Rv_index.Key
module J = Rv_obs.Json
open Measure

let conns_n = 2

(* In flight per connection.  Hot: enough that the server, not the
   client's wake-ups, sets the pace (the client uses under half a CPU;
   8 deep is no faster), and few enough that the machine's ~5 ms
   scheduling stalls delay well under 1% of replies: at 32 deep every
   stall caught 64 requests and p99 measured the stalls (spread 40-60%
   over seeds, 30-56% at 8 deep).  Cold: four in all, far below the
   admission queue's cap of 64, so nothing is shed. *)
let hot_depth = 4
let cold_depth = 2
let setup_samples = 5

(* A connection silent this long with requests in flight is given up
   (a cold query costs at most ~20 ms). *)
let no_reply_s = 20.

(* Spans are kept for this many wire requests of the traced pass; stage
   statistics cover all of them. *)
let traced_span_cap = 2000

(* --- the server process ------------------------------------------------- *)

type server = { pid : int; port : int; out : Unix.file_descr }

let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let read_line_fd fd =
  let b = Buffer.create 128 and c = Bytes.create 1 in
  let rec go () =
    if Unix.read fd c 0 1 = 0 || Bytes.get c 0 = '\n' then Buffer.contents b
    else begin
      Buffer.add_char b (Bytes.get c 0);
      go ()
    end
  in
  go ()

(* Ready when it prints its listening line: a blocking read, no polling. *)
let start_server ~rv ~index ~telemetry =
  let r, w = Unix.pipe ~cloexec:true () in
  let args =
    [ rv; "serve"; "--port"; "0"; "--jobs"; "1"; "--index"; index ]
    @ if telemetry then [] else [ "--no-telemetry" ]
  in
  let pid = Unix.create_process rv (Array.of_list args) Unix.stdin w Unix.stderr in
  Unix.close w;
  live := pid :: !live;
  let line = read_line_fd r in
  match Scanf.sscanf_opt line "rv serve: listening on 127.0.0.1:%d" Fun.id with
  | Some port -> { pid; port; out = r }
  | None -> failwith ("rv serve did not start: " ^ line)

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
        if now () > deadline then begin
          Unix.kill s.pid Sys.sigkill;
          ignore (Unix.waitpid [] s.pid)
        end
        else begin
          Unix.sleepf 0.002;
          wait ()
        end
    | _ -> ()
  in
  wait ();
  Unix.close s.out;
  live := List.filter (fun p -> p <> s.pid) !live

(* --- the client --------------------------------------------------------- *)

(* A connection the server closed, reset or left silent is dead: nothing
   more is sent or read on it, and its unanswered requests count as
   failed. *)
type conn = {
  fd : Unix.file_descr;
  rbuf : Bytes.t;
  mutable rlen : int;
  mutable inflight : int;
  mutable dead : bool;
  wbuf : Buffer.t;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; rbuf = Bytes.create (1 lsl 20); rlen = 0; inflight = 0; dead = false; wbuf = Buffer.create 65536 }

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let give_up c why =
  if not c.dead then log "connection given up: %s" why;
  c.dead <- true;
  c.inflight <- 0

let write_all c s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring c.fd s off (n - off)) in
  try go 0 with Unix.Unix_error (e, _, _) -> give_up c ("write: " ^ Unix.error_message e)

(* Hand every complete line in the buffer to [handle], keep the rest. *)
let read_lines c ~handle =
  match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
  | exception Unix.Unix_error (e, _, _) -> give_up c ("read: " ^ Unix.error_message e)
  | 0 -> give_up c "rv serve closed the connection"
  | n ->
      let t = now () *. 1e6 in
      c.rlen <- c.rlen + n;
      let rec scan start =
        match Bytes.index_from_opt c.rbuf start '\n' with
        | Some nl when nl < c.rlen ->
            handle c.rbuf start (nl - start) t;
            scan (nl + 1)
        | _ -> start
      in
      let start = scan 0 in
      Bytes.blit c.rbuf start c.rbuf 0 (c.rlen - start);
      c.rlen <- c.rlen - start

(* One request/reply on an idle connection (admin probes); fails on a
   dead connection. *)
let rpc c line =
  let reply = ref None and t0 = now () in
  if not c.dead then write_all c line;
  while Option.is_none !reply && not c.dead do
    match Unix.select [ c.fd ] [] [] 1.0 with
    | [], _, _ -> if now () -. t0 > no_reply_s then give_up c "no admin reply"
    | _ -> read_lines c ~handle:(fun b off len _ -> reply := Some (Bytes.sub_string b off len))
  done;
  match !reply with Some r -> r | None -> failwith "admin probe: connection dead"

(* The id a reply starts with ({"id":N,...) and the offset after its comma. *)
let parse_id b off len =
  let prefix = "{\"id\":" in
  let p = String.length prefix in
  let rec head i = i = p || (Bytes.get b (off + i) = prefix.[i] && head (i + 1)) in
  if len <= p + 1 || not (head 0) then None
  else begin
    let i = ref (off + p) and v = ref 0 in
    while !i < off + len && Bytes.get b !i >= '0' && Bytes.get b !i <= '9' do
      v := (!v * 10) + Char.code (Bytes.get b !i) - 48;
      incr i
    done;
    if !i > off + p && !i < off + len && Bytes.get b !i = ',' then Some (!v, !i + 1) else None
  end

let bytes_equal b off len s =
  len = String.length s
  &&
  let rec go i = i = len || (Bytes.get b (off + i) = s.[i] && go (i + 1)) in
  go 0

type reply = { k : int; send_us : float; recv_us : float; ok : bool }

(* Drive the connections with [depth] requests in flight on each.  Request
   [k] of the phase has id [base + k]; [line_of k] renders it ([None]:
   no more), [verify k b off len] checks its reply ([off] is just past
   the id).  Sending stops when [until ()] holds or no connection is
   left, then the phase drains.  Every id must be answered exactly once;
   returns (sent, failed), where failed counts replies that fail their
   check, unexpected replies and ids never answered. *)
let drive conns ~depth ~base ~line_of ~verify ~until ~on_reply =
  (* Flat, preallocated bookkeeping: a rehash or a big copy mid-pass
     would stall the client and show up as server latency. *)
  let send_us = Vec.create ~capacity:(1 lsl 20) () in
  let answered = ref (Bytes.make (1 lsl 20) '\000') in
  let sent = ref 0 and exhausted = ref false and bad = ref 0 in
  let last = ref (now ()) in
  let handle c b off len t =
    c.inflight <- c.inflight - 1;
    last := now ();
    match parse_id b off len with
    | Some (id, rest) when id >= base && id < base + !sent && Bytes.get !answered (id - base) = '\000' ->
        let k = id - base in
        Bytes.set !answered k '\001';
        let ok = verify k b rest (off + len - rest) in
        if not ok then incr bad;
        on_reply { k; send_us = Vec.get send_us k; recv_us = t; ok }
    | _ ->
        incr bad;
        log "unexpected reply: %s" (Bytes.sub_string b off (min len 200))
  in
  let inflight () = List.fold_left (fun acc c -> acc + c.inflight) 0 conns in
  while (not !exhausted) || inflight () > 0 do
    if (not !exhausted) && (until () || List.for_all (fun c -> c.dead) conns) then exhausted := true;
    List.iter
      (fun c ->
        let first = !sent in
        while (not !exhausted) && (not c.dead) && c.inflight < depth do
          match line_of !sent with
          | None -> exhausted := true
          | Some l ->
              Buffer.add_string c.wbuf l;
              if !sent = Bytes.length !answered then begin
                let b = Bytes.make (2 * !sent) '\000' in
                Bytes.blit !answered 0 b 0 !sent;
                answered := b
              end;
              incr sent;
              c.inflight <- c.inflight + 1
        done;
        if Buffer.length c.wbuf > 0 then begin
          let t = now () *. 1e6 in
          for k = first to !sent - 1 do
            Vec.set send_us k t
          done;
          write_all c (Buffer.contents c.wbuf);
          Buffer.clear c.wbuf
        end)
      conns;
    let waiting = List.filter (fun c -> c.inflight > 0) conns in
    if waiting <> [] then begin
      match Unix.select (List.map (fun c -> c.fd) waiting) [] [] 1.0 with
      | [], _, _ ->
          if now () -. !last > no_reply_s then
            List.iter (fun c -> give_up c (Printf.sprintf "no reply for %.0f s" no_reply_s)) waiting
      | ready, _, _ ->
          List.iter (fun c -> if List.memq c.fd ready then read_lines c ~handle:(handle c)) waiting
    end
  done;
  let unanswered = ref 0 in
  for k = 0 to !sent - 1 do
    if Bytes.get !answered k = '\000' then incr unanswered
  done;
  if !unanswered > 0 then log "%d of %d requests never answered" !unanswered !sent;
  (!sent, !bad + !unanswered)

(* --- inputs and expected replies ---------------------------------------- *)

let eval q =
  match H.eval_vals ~deadline_us:None q with
  | Ok v -> v
  | Error (_, m, _) -> failwith (Key.render q ^ ": " ^ m)

(* A reply without its id: what follows {"id":N, in the wire line. *)
let suffix q v =
  let l = P.ok_line ~id:None (H.fields_of_vals q v) in
  String.sub l 1 (String.length l - 1)

let bake ~path hot =
  let cells = Gen.filler () @ List.filteri (fun i _ -> Gen.baked i) (Array.to_list hot) in
  let entries = List.map (fun q -> (Key.render q, H.values_of_vals (eval q))) cells in
  ignore (ok_or_die "bake" (Rv_index.Writer.write ~path ~generation:1 ~meta:"perfbench" entries))

type ctx = {
  rv : string;
  dir : string;
  seed : int;
  hot : Key.query array;
  bodies : string array;
  expected : string array;
  mutable next_id : int;
  mutable attempted : int;
  mutable failed : int;
}

let index_path ctx = Filename.concat ctx.dir "serve.idx"

let account ctx (sent, bad) =
  ctx.next_id <- ctx.next_id + sent;
  ctx.attempted <- ctx.attempted + sent;
  ctx.failed <- ctx.failed + bad

let hot_verify ctx k b off len =
  bytes_equal b off len ctx.expected.(k mod Gen.hot_size)

(* Same check on a debug reply: the expected fields, then the debug object. *)
let hot_verify_debug ctx k b off len =
  let e = ctx.expected.(k mod Gen.hot_size) in
  let body = String.length e - 1 in
  len > body + 9
  && bytes_equal b off body (String.sub e 0 body)
  && String.equal (Bytes.sub_string b (off + body) 9) ",\"debug\":"

let lap ctx conns =
  let base = ctx.next_id in
  account ctx
    (drive conns ~depth:hot_depth ~base
       ~line_of:(fun k ->
         if k < Gen.hot_size then Some (Gen.line ~id:(base + k) ctx.bodies.(k)) else None)
       ~verify:(hot_verify ctx) ~until:(fun () -> false) ~on_reply:ignore)

(* Set-up: bake the index, start the server and wait until it listens,
   connect, and one warm-up lap of the hot set. *)
let setup ctx ~telemetry =
  let t0 = now () in
  bake ~path:(index_path ctx) ctx.hot;
  let srv = start_server ~rv:ctx.rv ~index:(index_path ctx) ~telemetry in
  let conns = List.init conns_n (fun _ -> connect srv.port) in
  lap ctx conns;
  (srv, conns, now () -. t0)

let shutdown (srv, conns) =
  List.iter close_conn conns;
  stop_server srv

let context ~rv ~dir ~seed =
  let hot = Gen.hot_set ~seed in
  {
    rv;
    dir;
    seed;
    hot;
    bodies = Array.map Gen.body hot;
    expected = Array.map (fun q -> suffix q (eval q)) hot;
    next_id = 0;
    attempted = 0;
    failed = 0;
  }

(* --- traffic ------------------------------------------------------------- *)

type pass = {
  replies : int;
  secs : float;
  lat : float array;
  n_sent : int;
  client_cpu : float;  (** this process's CPU seconds during the pass *)
}

let throughput p = float_of_int p.replies /. p.secs

(* The cold stream's position [k] for a reply's check. *)
let cold_verify cold ~pos0 k b off len =
  match (Gen.cold_query cold (pos0 + k), J.parse ("{" ^ Bytes.sub_string b off len)) with
  | Key.Worst w, Ok j -> (
      let int name = Option.bind (J.member name j) J.to_int in
      let str name = Option.bind (J.member name j) J.to_str in
      str "status" = Some "ok"
      && str "type" = Some "worst"
      && str "graph" = Some w.Key.w_graph
      && str "algorithm" = Some w.Key.w_algorithm
      && int "space" = Some w.Key.w_space
      &&
      match (int "time", int "cost", int "proven_time", int "proven_cost") with
      | Some t, Some c, Some pt, Some pc -> t > 0 && t <= pt && c <= pc
      | _ -> false)
  | _ -> false

(* Traffic runs this long before a pass's window opens: a server that was
   idle (or shared the CPU with another) takes a few hundred ms to reach
   its steady rate. *)
let warm_s = 0.5

(* One timed pass: [warm_s] of traffic, then a window of [secs].
   Throughput counts the verified replies that arrive within the window;
   latency is send-to-reply of every reply sent within it. *)
let timed_pass ctx conns ~workload ~secs ?(debug = false) ?(pos0 = 0) ?inspect () =
  let base = ctx.next_id in
  let cold = Gen.cold_stream ~seed:ctx.seed in
  let depth, line_of, verify =
    if String.equal workload "serve-hot" then
      ( hot_depth,
        (fun k -> Some (Gen.line ~debug ~id:(base + k) ctx.bodies.(k mod Gen.hot_size))),
        if debug then hot_verify_debug ctx else hot_verify ctx )
    else
      ( cold_depth,
        (fun k -> Some (Gen.line ~debug ~id:(base + k) (Gen.body (Gen.cold_query cold (pos0 + k))))),
        cold_verify cold ~pos0 )
  in
  (* [inspect] sees each reply with its line (debug stage breakdowns). *)
  let last = ref "" in
  let verify =
    match inspect with
    | None -> verify
    | Some _ ->
        fun k b off len ->
          last := "{" ^ Bytes.sub_string b off len;
          verify k b off len
  in
  let t0 = now () +. warm_s in
  let t_end = t0 +. secs in
  let cpu0 = ref None in
  let lat = Vec.create ~capacity:(1 lsl 20) () and inside = ref 0 in
  let r =
    drive conns ~depth ~base ~line_of ~verify
      ~until:(fun () ->
        let t = now () in
        if t >= t0 && Option.is_none !cpu0 then cpu0 := Some (Unix.times ());
        t >= t_end)
      ~on_reply:(fun r ->
        if r.ok && r.recv_us >= t0 *. 1e6 && r.recv_us <= t_end *. 1e6 then incr inside;
        if r.send_us >= t0 *. 1e6 then Vec.push lat (r.recv_us -. r.send_us);
        Option.iter (fun f -> f r !last) inspect)
  in
  account ctx r;
  let cpu1 = Unix.times () in
  let cpu0 = Option.value !cpu0 ~default:cpu1 in
  let client_cpu =
    cpu1.Unix.tms_utime +. cpu1.Unix.tms_stime -. cpu0.Unix.tms_utime -. cpu0.Unix.tms_stime
  in
  { replies = !inside; secs; lat = Vec.to_array lat; n_sent = fst r; client_cpu }

let metrics_json c =
  match J.parse (rpc c "{\"type\":\"metrics\"}\n") with
  | Ok j -> fun name -> Option.value (Option.bind (J.member name j) J.to_int) ~default:0
  | Error e -> failwith ("metrics probe: " ^ e)

(* The server's GC gauges, from its Prometheus exposition. *)
let gc_gauges c =
  let body =
    match J.parse (rpc c "{\"type\":\"metrics\",\"format\":\"prometheus\"}\n") with
    | Ok j -> Option.value (Option.bind (J.member "body" j) J.to_str) ~default:""
    | Error e -> failwith ("metrics probe: " ^ e)
  in
  fun name ->
    List.fold_left
      (fun acc l ->
        match String.split_on_char ' ' l with
        | [ n; v ] when String.equal n name -> float_of_string v
        | _ -> acc)
      0. (String.split_on_char '\n' body)

let heap_mb c = mb_of_words (int_of_float (gc_gauges c "rv_serve_gc_top_heap_words"))

(* An admin probe after a pass, on a live connection.  A probe that gets
   no answer is a failed operation and the run goes on with [default]. *)
let probe ctx conns what ~default f =
  ctx.attempted <- ctx.attempted + 1;
  let failed m =
    ctx.failed <- ctx.failed + 1;
    log "%s: %s" what m;
    default
  in
  match List.find_opt (fun c -> not c.dead) conns with
  | None -> failed "no live connection"
  | Some c -> ( try f c with Failure m -> failed m)

(* --- end-to-end run ------------------------------------------------------ *)

let run ~workload ~rv ~seed ~seconds ~dir =
  let ctx = context ~rv ~dir ~seed in
  let setups = ref [] and kept = ref None in
  for i = 1 to setup_samples do
    let srv, conns, secs = setup ctx ~telemetry:true in
    setups := secs :: !setups;
    if i < setup_samples then shutdown (srv, conns) else kept := Some (srv, conns)
  done;
  let srv, conns = Option.get !kept in
  let p = timed_pass ctx conns ~workload ~secs:seconds () in
  let heap = probe ctx conns "heap gauge" ~default:0. heap_mb in
  shutdown (srv, conns);
  let lat = p.lat in
  log "%s: %d replies in %.1f s (%.0f/s, client CPU %.0f%%), latency p50 %.0f us p99 %.0f us \
       over %d samples (%d beyond p99), setup %s s"
    workload p.replies p.secs (throughput p) (100. *. p.client_cpu /. p.secs) (median lat)
    (quantile lat 0.99) (Array.length lat) (beyond lat 0.99)
    (String.concat " " (List.map (Printf.sprintf "%.3f") !setups));
  ( (ctx.attempted, ctx.failed),
    [
      ("throughput_per_s", throughput p);
      ("latency_p50_us", median lat);
      ("setup_s", median (Array.of_list !setups));
      ("heap_peak_mb", heap);
      ("ok_frac", ok_frac ~attempted:ctx.attempted ~failed:ctx.failed);
    ] )

(* --- traced run ----------------------------------------------------------- *)

let l_transport = "Transport (sockets, thread hand-offs)"
let l_prelude = "Rv_serve.Handler spec+sweep prelude"
let l_server = "server glue (Key render, Rspan)"

let stage_layer = function
  | "parse" -> "Rv_serve.Proto"
  | "index" -> "Rv_index.Reader"
  | "cache" -> "Rv_serve.Cache"
  | "queue" -> "Rv_serve.Admission"
  | "compute" -> "Rv_serve.Handler"
  | s -> "stage:" ^ s

(* Per-request stage breakdown from the debug replies of the traced pass:
   spans for the first requests; for all, each stage's total time and
   how often it ran.  A cold request probes the index and the LRU twice,
   on its connection thread and again when the dispatcher dequeues it. *)
type stages = {
  sums : (string, float * int) Hashtbl.t;
  mutable n : int;
  mutable total : float;
  mutable transport : float;
}

let debug_stages tree st ~base ~lanes (r : reply) line =
  match Option.bind (Result.to_option (J.parse line)) (J.member "debug") with
  | None -> ()
  | Some d ->
      let total = float_of_int (Option.value (Option.bind (J.member "total_us" d) J.to_int) ~default:0) in
      let stages =
        List.filter_map
          (fun s ->
            match
              ( Option.bind (J.member "stage" s) J.to_str,
                Option.bind (J.member "start_us" s) J.to_float,
                Option.bind (J.member "dur_us" s) J.to_float )
            with
            | Some n, Some a, Some du -> Some (n, a, du)
            | _ -> None)
          (Option.value (Option.bind (J.member "stages" d) J.to_list) ~default:[])
      in
      st.n <- st.n + 1;
      st.total <- st.total +. total;
      st.transport <- st.transport +. (r.recv_us -. r.send_us -. total);
      List.iter
        (fun (n, _, du) ->
          let sum, calls = Option.value (Hashtbl.find_opt st.sums n) ~default:(0., 0) in
          Hashtbl.replace st.sums n (sum +. du, calls + 1))
        stages;
      if r.k < traced_span_cap then begin
        let id = base + r.k in
        let lane = 1 + (r.k mod lanes) in
        let root = Spans.add tree ~lane ~name:"request" ~layer:l_transport ~id r.send_us r.recv_us in
        let s0 = Float.max r.send_us (r.recv_us -. total) in
        let srv = Spans.add tree ~parent:root ~name:"server" ~layer:l_server ~id s0 r.recv_us in
        List.iter
          (fun (n, a, du) ->
            ignore
              (Spans.add tree ~parent:srv ~name:n ~layer:(stage_layer n) ~id (s0 +. a)
                 (Float.min r.recv_us (s0 +. a +. du))))
          stages
      end

let stage_sum st n = Option.value (Hashtbl.find_opt st.sums n) ~default:(0., 0)

(* A stage's mean time per reply, and per time it ran. *)
let per_reply st n = if st.n = 0 then 0. else fst (stage_sum st n) /. float_of_int st.n

let per_call st n =
  match stage_sum st n with _, 0 -> 0. | sum, calls -> sum /. float_of_int calls

let l_render = "Reply render (fields_of_vals, ok_line, Json)"

(* The layers rv serve times no stage for, timed in this process through
   the same public functions on the traced pass's first requests (same
   ids): key rendering, spec parsing, the LRU insert and the reply
   render.  On serve-cold the compute runs here too, with rv_obs on, for
   the kernel layers inside worst_for; the compute time reported is the
   server's own. *)
let replay ctx ~workload ~tree ~queries =
  let cold = String.equal workload "serve-cold" in
  let cache = Rv_serve.Cache.create ~max_bytes:(8 * 1024 * 1024) in
  let hot_vals = if cold then [||] else Array.map eval ctx.hot in
  let bytes = ref 0 and renders = ref 0 and imports = ref [] in
  if cold then ignore (Sweeps.obs_on ());
  Array.iteri
    (fun k (id, q) ->
      Spans.record tree ~lane:0 ~name:"request" ~layer:"unattributed" ~id (fun root ->
          let span name layer f = Spans.record tree ~parent:root ~name ~layer ~id (fun _ -> f ()) in
          let key = span "key.render" "Rv_index.Key" (fun () -> P.canonical_key q) in
          let v =
            if not cold then hot_vals.(k mod Gen.hot_size)
            else begin
              (match q with
              | Key.Worst w ->
                  span "handler.spec" "Rv_serve.Handler spec" (fun () ->
                      match Rv_experiments.Spec.parse_graph w.Key.w_graph with
                      | Ok gs ->
                          ignore (Rv_experiments.Spec.parse_explorer gs w.Key.w_explorer);
                          ignore (Rv_experiments.Spec.parse_algorithm w.Key.w_algorithm)
                      | Error _ -> ())
              | Key.Run _ -> ());
              let offset = Sweeps.obs_reset () in
              let c0 = Spans.count tree in
              let v = span "handler.compute" "Rv_serve.Handler" (fun () -> eval q) in
              imports := (c0, id, offset, Rv_obs.Obs.events ()) :: !imports;
              let fields = H.fields_of_vals q v in
              span "cache.add" "Rv_serve.Cache" (fun () -> Rv_serve.Cache.add cache key fields);
              v
            end
          in
          let out = span "render" l_render (fun () -> P.ok_line ~id:(Some id) (H.fields_of_vals q v)) in
          bytes := !bytes + String.length out;
          incr renders))
    queries;
  if cold then ignore (Sweeps.obs_off ());
  (* rv_obs spans go in after the replay, so importing costs no span time. *)
  List.iter
    (fun (root, id, offset, evs) -> Sweeps.import tree ~root ~id ~offset ~prelude:l_prelude evs)
    !imports;
  (float_of_int !bytes /. float_of_int (max 1 !renders))

let traced ~workload ~rv ~seed ~seconds ~dir ~out =
  let ctx = context ~rv ~dir ~seed in
  let hot = String.equal workload "serve-hot" in
  let srv, conns, _ = setup ctx ~telemetry:true in
  (* serve-hot: five slices (on, off, on, off, traced); serve-cold: two
     (untraced, traced), longer, since every cold pass carries other queries. *)
  let slice = Float.max 1. (seconds /. if hot then 6. else 2.5) in
  let pos = ref 0 in
  let pass ?debug ?inspect ~label conns =
    let p = timed_pass ctx conns ~workload ~secs:slice ?debug ~pos0:!pos ?inspect () in
    pos := !pos + p.n_sent;
    log "%s pass: %.0f replies/s, client CPU %.0f%%" label (throughput p)
      (100. *. p.client_cpu /. p.secs);
    p
  in
  (* Untraced; for serve-hot interleaved with a telemetry-off server on the
     same index: on, off, on, off. *)
  let on_off =
    if hot then begin
      let srv_off = start_server ~rv ~index:(index_path ctx) ~telemetry:false in
      let conns_off = List.init conns_n (fun _ -> connect srv_off.port) in
      lap ctx conns_off;
      let ps =
        List.init 2 (fun _ ->
            let on = pass ~label:"telemetry-on" conns in
            (on, Some (pass ~label:"telemetry-off" conns_off)))
      in
      shutdown (srv_off, conns_off);
      ps
    end
    else [ (pass ~label:"untraced" conns, None) ]
  in
  let untraced = List.map fst on_off in
  let thr_on = median (Array.of_list (List.map throughput untraced)) in
  let telemetry_us =
    match List.filter_map snd on_off with
    | [] -> 0.
    | off -> (1e6 /. thr_on) -. (1e6 /. median (Array.of_list (List.map throughput off)))
  in
  (* Traced: the same traffic with debug stage breakdowns. *)
  let tree = Spans.create () in
  let st = { sums = Hashtbl.create 8; n = 0; total = 0.; transport = 0. } in
  let base = ctx.next_id and pos_traced = !pos in
  let lanes = conns_n * if hot then hot_depth else cold_depth in
  let traced = pass ~label:"traced" ~debug:true conns ~inspect:(debug_stages tree st ~base ~lanes) in
  let m = probe ctx conns "metrics probe" ~default:(fun _ -> 0) metrics_json in
  let gauge = probe ctx conns "GC gauges" ~default:(fun _ -> 0.) gc_gauges in
  shutdown (srv, conns);
  (* In-process replay of the traced pass's first requests (same ids). *)
  let cold = Gen.cold_stream ~seed in
  let queries =
    if hot then Array.init (20 * Gen.hot_size) (fun k -> (base + k, ctx.hot.(k mod Gen.hot_size)))
    else Array.init 100 (fun k -> (base + k, Gen.cold_query cold (pos_traced + k)))
  in
  let st0 = Rv_experiments.Workload.Stats.snapshot () in
  let tc0 = Rv_sim.Traj_cache.stats () in
  let render_bytes = replay ctx ~workload ~tree ~queries in
  let st1 = Rv_experiments.Workload.Stats.snapshot () in
  let tc1 = Rv_sim.Traj_cache.stats () in
  let self = Spans.self_times tree in
  let local name =
    let s, c = Sweeps.sum_self tree self (fun sp -> Sweeps.named name sp && sp.Spans.lane = 0) in
    if c = 0 then 0. else s /. float_of_int c
  in
  (* Closure per reply: the server's measured time (its debug total less
     queueing) plus reply rendering and telemetry, against the time per
     reply.  serve-hot repeats the same traffic in every pass, so that is
     the untraced pass's; serve-cold's passes carry different queries, so
     it is the traced pass's own. *)
  let per_reply_us = 1e6 /. if hot then thr_on else throughput traced in
  let render_us = local "render" in
  let total = if st.n = 0 then 0. else st.total /. float_of_int st.n in
  let attributed = total -. per_reply st "queue" +. render_us +. telemetry_us in
  let untraced_ms =
    1e3 *. List.fold_left (fun acc p -> acc +. p.secs) 0. untraced /. float_of_int (List.length untraced)
  in
  let unattributed_ms = untraced_ms *. (per_reply_us -. attributed) /. per_reply_us in
  let frac a b = if b > 0 then float_of_int a /. float_of_int b else 0. in
  let d f = f st1 - f st0 in
  let hits = tc1.Rv_sim.Traj_cache.hits - tc0.Rv_sim.Traj_cache.hits in
  let misses = tc1.Rv_sim.Traj_cache.misses - tc0.Rv_sim.Traj_cache.misses in
  let metrics =
    [
      ("proto.parse_us", per_call st "parse");
      ("key.render_us", local "key.render");
      ("index.lookup_us", per_call st "index");
      ("index.hits", float_of_int (m "index_hits"));
      ("index.misses", float_of_int (m "index_misses"));
      ("cache.find_us", per_call st "cache");
      ("cache.add_us", local "cache.add");
      ("cache.hits", float_of_int (m "cache_hits"));
      ("cache.misses", float_of_int (m "cache_misses"));
      ("cache.evictions", float_of_int (m "cache_evictions"));
      ("admission.queue_wait_us", per_call st "queue");
      ("admission.overloaded", float_of_int (m "overloaded"));
      ("handler.spec_us", local "handler.spec");
      ("handler.compute_us", per_call st "compute");
      ("render.us", render_us);
      ("render.bytes", render_bytes);
      ("telemetry.us_per_req", telemetry_us);
      ("server.total_us", total);
      ("transport.us", if st.n = 0 then 0. else st.transport /. float_of_int st.n);
      ("server.top_heap_mb", mb_of_words (int_of_float (gauge "rv_serve_gc_top_heap_words")));
      ("server.major_collections", gauge "rv_serve_gc_major_collections_total");
      ("unattributed_ms", unattributed_ms);
      ("trace_overhead_pct", 100. *. ((thr_on /. throughput traced) -. 1.));
      ("latency.p99_us", quantile (Array.concat (List.map (fun p -> p.lat) untraced)) 0.99);
    ]
    @
    if hot then []
    else
      [
        ("dispatch.traj_frac", frac (d (fun s -> s.Rv_experiments.Workload.Stats.traj_cells))
           (d (fun s -> s.Rv_experiments.Workload.Stats.simulated)));
        ("traj.cache_hit_ratio", frac hits (hits + misses));
        ("replay.configs", float_of_int (d (fun s -> s.Rv_experiments.Workload.Stats.covered)));
        ("replay.ms", Sweeps.layer_ms tree self Sweeps.l_replay);
      ]
      @ Sweeps.kernel_metrics tree ~scan_rounds:(Sweeps.scan_rounds ()) ~sim_rounds:(Sweeps.sim_rounds ())
  in
  let b = Buffer.create 2048 in
  let pr fmt = Printf.bprintf b fmt in
  pr "%s: rv serve's own stage times, from %d debug replies of the traced pass\n" workload st.n;
  pr "%-56s %10s %8s %10s\n" "layer [stage]" "us/reply" "calls" "us/call";
  List.iter
    (fun n ->
      pr "%-56s %10.3f %8d %10.3f\n" (stage_layer n ^ " [" ^ n ^ "]") (per_reply st n)
        (snd (stage_sum st n)) (per_call st n))
    (List.sort_uniq String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) st.sums []));
  pr "%-56s %10.3f\n" l_server
    (total -. Hashtbl.fold (fun _ (v, _) acc -> acc +. v) st.sums 0. /. float_of_int (max 1 st.n));
  pr "%-56s %10.3f\n" "Reply render (in-process replay)" render_us;
  pr "%-56s %10.3f\n" "Telemetry (on minus off)" telemetry_us;
  pr "%-56s %10.3f\n" "attributed (server total - queue + render + telemetry)" attributed;
  pr "%-56s %10.3f\n" "time per reply (1 / throughput)" per_reply_us;
  pr "%-56s %10.3f\n" "client latency - server total (incl. pipeline wait)" (List.assoc "transport.us" metrics);
  pr "unattributed %.3f ms of %.3f ms untraced (%.1f%%; target <= 10%%)\n" unattributed_ms untraced_ms
    (100. *. unattributed_ms /. untraced_ms);
  pr "trace overhead %.1f%% (debug replies)\n" (List.assoc "trace_overhead_pct" metrics);
  pr "missing boundary: socket reads/writes and connection-thread hand-offs inside rv serve \
      are exported by no span or stage; the unattributed time is theirs\n";
  pr "proto.parse_us, index.lookup_us, cache.find_us, admission.queue_wait_us and \
      handler.compute_us are the server's stages [parse], [index], [cache], [queue] and \
      [compute], per call\n\n";
  pr "in-process replay of %d requests, for the layers rv serve times no stage for \
      (key.render_us, handler.spec_us, cache.add_us, render.us)\n" (Array.length queries);
  pr "%-56s %12s %10s\n" "layer" "self_ms" "calls";
  List.iter
    (fun r -> pr "%-56s %12.3f %10d\n" r.Spans.r_layer (r.Spans.self_us /. 1e3) r.Spans.calls)
    (Spans.by_layer ~keep:(fun sp -> sp.Spans.lane = 0) tree);
  Sweeps.write_outputs ~dir:out ~workload tree (Spans.create ()) (Buffer.contents b);
  ((ctx.attempted, ctx.failed), metrics)

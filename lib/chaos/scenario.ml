module Json = Rv_obs.Json
module Rng = Rv_util.Rng
module Proto = Rv_serve.Proto
module Handler = Rv_serve.Handler
module Loadgen = Rv_serve.Loadgen
module Clock = Rv_serve.Clock

type env = { host : string; port : int; seed : int }

type outcome = { o_name : string; o_passed : bool; o_detail : string }

let ( let* ) = Result.bind

let rpc env line = Loadgen.rpc ~host:env.host ~port:env.port line

(* --- server introspection ----------------------------------------------- *)

let geti j name = Option.bind (Json.member name j) Json.to_int

let admin_json env line =
  let* reply = rpc env line in
  match Json.parse reply with
  | Error e -> Error (Printf.sprintf "bad admin reply %S: %s" reply e)
  | Ok j -> Ok j

let health env = admin_json env {|{"type":"health"}|}
let metrics env = admin_json env {|{"type":"metrics"}|}

type counters = {
  ct_requests : int;
  ct_bad : int;
  ct_overloaded : int;
  ct_deadline : int;
  ct_write_failures : int;
}

let counters env =
  let* j = metrics env in
  match
    ( geti j "requests", geti j "bad_request", geti j "overloaded",
      geti j "deadline_exceeded", geti j "write_failures" )
  with
  | Some r, Some b, Some o, Some d, Some w ->
      Ok
        {
          ct_requests = r;
          ct_bad = b;
          ct_overloaded = o;
          ct_deadline = d;
          ct_write_failures = w;
        }
  | _ -> Error "metrics reply missing counter fields"

(* Poll [probe] until it reports done or [timeout_s] passes; scenarios
   assert on counters that move a beat after the socket action, so every
   counter assertion goes through here. *)
let poll ?(timeout_s = 10.) ~what probe =
  let deadline = Clock.now_s () +. timeout_s in
  let rec go () =
    match probe () with
    | Error _ as e -> e
    | Ok (true, _) -> Ok ()
    | Ok (false, detail) ->
        if Clock.now_s () >= deadline then
          Error (Printf.sprintf "timed out waiting for %s (%s)" what detail)
        else begin
          Thread.delay 0.05;
          go ()
        end
  in
  go ()

(* --- request builders and expected replies ------------------------------ *)

(* A cheap clean query, cycled for variety; ids keep replies attributable. *)
let clean_line ~id k =
  match k mod 3 with
  | 0 ->
      Loadgen.run_line ~id ~graph:"ring:8" ~algorithm:"cheap" ~space:8
        ~label_a:1 ~label_b:2
  | 1 ->
      Loadgen.run_line ~id ~graph:"ring:10" ~algorithm:"fast" ~space:8
        ~label_a:3 ~label_b:5
  | _ ->
      Loadgen.worst_line ~id ~graph:"ring:6" ~algorithm:"cheap" ~space:8
        ~pairs:3 ~max_delay:4 ()

(* A compute-bound query: the full sweep takes long enough (hundreds of
   ms) that a client can reliably disconnect, or a 1ms deadline reliably
   expire, while the server is still working.  [salt] keeps canonical
   keys distinct so the LRU cache cannot answer instead. *)
let heavy_line ~id ~salt =
  Loadgen.worst_line ~id ~graph:"ring:128" ~algorithm:"fast" ~space:64
    ~pairs:24 ~max_delay:(256 + salt) ()

(* Salts are only cache-defeating while their canonical keys are new,
   and both soak rotations and repeated CLI invocations revisit each
   scenario against the same long-lived server.  The server's own
   [requests] counter is the salt base: monotone over its lifetime, and
   the n salted queries themselves advance it by n before the scenario
   ends, so consecutive blocks never overlap — a client-side counter
   would restart at 0 with every process.  The base only nudges
   [max_delay], which grows the scan horizon far slower than it grows:
   heavy queries stay heavy, in the hundreds-of-ms band, across any
   realistic soak. *)
let salt_base c = c.ct_requests

(* The serve-path byte-identity contract doing double duty as a test
   oracle: evaluate the exact same bytes in-process and render through
   the server's printers. *)
let expected_for line =
  match Proto.parse line with
  | Error e -> invalid_arg ("Scenario.expected_for: line unparseable: " ^ e)
  | Ok req -> (
      match req.Proto.body with
      | `Admin _ -> invalid_arg "Scenario.expected_for: admin line"
      | `Query q -> (
          match Handler.eval_vals ~deadline_us:None q with
          | Ok v -> Proto.ok_line ~id:req.Proto.id (Handler.fields_of_vals q v)
          | Error (code, msg, extra) ->
              Proto.error_line ~id:req.Proto.id ~extra code msg))

let code_of reply =
  match Json.parse reply with
  | Error _ -> None
  | Ok j -> Option.bind (Json.member "code" j) (fun v -> Json.to_str v)

(* Run closures on their own threads and collect their results; bodies
   are exception-wrapped (rv_lint R9) so a crashed scenario thread
   surfaces as an [Error], never a dead thread. *)
let in_threads jobs =
  let jobs = Array.of_list jobs in
  let results = Array.make (Array.length jobs) (Error "not run") in
  let ths =
    Array.mapi
      (fun i job ->
        Thread.create
          (fun () ->
            results.(i) <-
              (try job () with exn -> Error (Printexc.to_string exn)))
          ())
      jobs
  in
  Array.iter Thread.join ths;
  Array.to_list results

let all_ok results =
  match List.find_opt Result.is_error results with
  | Some (Error e) -> Error e
  | _ -> Ok ()

(* --- the contract -------------------------------------------------------- *)

let contract env =
  (* 1. Connections settle: nothing this scenario opened may linger in
     the registry.  Our own probe connection accounts for the 1. *)
  let* () =
    poll ~what:"connections to settle" (fun () ->
        let* j = health env in
        match (geti j "active_connections", geti j "queue_depth") with
        | Some a, Some q ->
            Ok
              ( a <= 1 && q = 0,
                Printf.sprintf "active_connections=%d queue_depth=%d" a q )
        | _ -> Error "health reply missing fields")
  in
  (* 2. Health still answers with status ok. *)
  let* j = health env in
  let* () =
    match Json.member "status" j with
    | Some (Json.Str "ok") -> Ok ()
    | _ -> Error "health status not ok"
  in
  (* 3. A clean control query on a fresh connection returns exactly the
     bytes in-process evaluation produces. *)
  let control = clean_line ~id:990_001 0 in
  let want = expected_for control in
  let* got = rpc env control in
  if String.equal got want then Ok "health ok, connections settled, control reply byte-identical"
  else
    Error
      (Printf.sprintf "control reply mismatch:\n  want %s\n  got  %s" want got)

(* --- scenarios ----------------------------------------------------------- *)

(* Slow-loris: several clients drip a valid frame a few bytes at a time.
   The server must wait out the drip (no mid-frame timeout, no partial
   parse) and stay responsive to other clients throughout. *)
let scenario_slow_loris env =
  let n = 4 in
  let jobs =
    List.init n (fun i () ->
        let* fd = Loadgen.connect ~host:env.host ~port:env.port in
        Fun.protect ~finally:(fun () -> Fault.close fd) @@ fun () ->
        let line = clean_line ~id:(1_000 + i) i in
        let* () = Fault.drip_line ~chunk:3 ~pause_s:0.01 fd line in
        let* reply = Fault.recv_line fd in
        if String.equal reply (expected_for line) then Ok ()
        else Error (Printf.sprintf "drip reply mismatch: %s" reply))
  in
  let results = ref [] in
  let th =
    Thread.create
      (fun () ->
        results := (try in_threads jobs with exn -> [ Error (Printexc.to_string exn) ]))
      ()
  in
  (* While the drips are in flight, the server must keep answering. *)
  let rec probe k acc =
    if k = 0 then acc
    else begin
      Thread.delay 0.05;
      let ok =
        match health env with
        | Ok j -> (
            match Json.member "status" j with
            | Some (Json.Str "ok") -> true
            | _ -> false)
        | Error _ -> false
      in
      probe (k - 1) (acc && ok)
    end
  in
  let healthy_during = probe 4 true in
  Thread.join th;
  let* () = all_ok !results in
  if healthy_during then
    Ok (Printf.sprintf "%d dripped frames answered byte-identically; health stayed up" n)
  else Error "health probe failed while drips were in flight"

(* Partial writes: half a frame, then the client vanishes — politely
   (FIN: the server sees the fragment at EOF and must answer
   bad_request into the void without hurting anyone) or rudely (RST:
   the server sees a dead socket and must just clean up). *)
let scenario_partial_write env =
  let* before = counters env in
  let jobs =
    List.init 6 (fun i () ->
        let* fd = Loadgen.connect ~host:env.host ~port:env.port in
        let line = clean_line ~id:(2_000 + i) i in
        let sent = Fault.send_partial fd line ~keep:(String.length line / 2) in
        Thread.delay 0.02;
        (match sent with
        | Ok () -> if i < 3 then Fault.close fd else Fault.reset fd
        | Error _ -> Fault.close fd);
        sent)
  in
  let* () = all_ok (in_threads jobs) in
  (* The 3 FIN fragments arrive as truncated lines and must be counted
     as bad requests; the RST ones may die before parsing, so only the
     lower bound is deterministic. *)
  let* () =
    poll ~what:"bad_request counter to advance by 3" (fun () ->
        let* now = counters env in
        Ok
          ( now.ct_bad >= before.ct_bad + 3,
            Printf.sprintf "bad_request %d -> %d" before.ct_bad now.ct_bad ))
  in
  Ok "6 half-frames (3 FIN, 3 RST) absorbed; fragments counted as bad_request"

(* Abrupt disconnect between request and reply: the client sends a
   complete heavy query, waits for the server to commit to computing
   it, then resets the connection.  The finished reply must hit the
   dead socket, be counted as a write failure, and never reach the
   dispatcher as an error. *)
let scenario_disconnect_before_reply env =
  let* before = counters env in
  let n = 2 in
  let base = salt_base before in
  let jobs =
    List.init n (fun i () ->
        let* fd = Loadgen.connect ~host:env.host ~port:env.port in
        let* () = Fault.send_line fd (heavy_line ~id:(3_000 + i) ~salt:(base + i)) in
        (* long enough for the read + dispatch, far shorter than the sweep *)
        Thread.delay 0.05;
        Fault.reset fd;
        Ok ())
  in
  let* () = all_ok (in_threads jobs) in
  let* () =
    poll ~timeout_s:30. ~what:"write_failures counter to advance" (fun () ->
        let* now = counters env in
        Ok
          ( now.ct_write_failures >= before.ct_write_failures + n,
            Printf.sprintf "write_failures %d -> %d" before.ct_write_failures
              now.ct_write_failures ))
  in
  Ok
    (Printf.sprintf
       "%d replies written to reset sockets, all absorbed as write_failures" n)

(* Connection churn: rapid connect / one request / disconnect cycles,
   with a third of the connections contributing nothing but the
   handshake. *)
let scenario_churn env =
  let* j0 = health env in
  let* total0 =
    match geti j0 "total_connections" with
    | Some t -> Ok t
    | None -> Error "health reply missing total_connections"
  in
  let cycles = 20 in
  let rng = Rng.create ~seed:env.seed in
  let rec go i =
    if i >= cycles then Ok ()
    else
      let* fd = Loadgen.connect ~host:env.host ~port:env.port in
      let* () =
        Fun.protect ~finally:(fun () -> Fault.close fd) @@ fun () ->
        if i mod 3 = 0 then Ok ()
        else begin
          let line = clean_line ~id:(4_000 + i) (Rng.int_in rng 0 2) in
          let* reply = Fault.rpc_line fd line in
          if String.equal reply (expected_for line) then Ok ()
          else Error (Printf.sprintf "churn cycle %d reply mismatch" i)
        end
      in
      go (i + 1)
  in
  let* () = go 0 in
  let* () =
    poll ~what:"registry to account all churned connections" (fun () ->
        let* j = health env in
        match geti j "total_connections" with
        | Some t ->
            Ok
              ( t >= total0 + cycles,
                Printf.sprintf "total_connections %d -> %d" total0 t )
        | None -> Error "health reply missing total_connections")
  in
  Ok (Printf.sprintf "%d connect/request/disconnect cycles, replies byte-identical" cycles)

(* Queue storm: a burst of distinct compute-bound queries, 2x the
   admission cap plus change.  The queue must fill, the excess must be
   shed as `overloaded (never dropped silently), and admin probes must
   keep answering inline throughout. *)
let scenario_queue_storm env =
  let* j0 = health env in
  let* cap =
    match geti j0 "queue_cap" with
    | Some c -> Ok c
    | None -> Error "health reply missing queue_cap"
  in
  let burst = (2 * cap) + 4 in
  let* before = counters env in
  let base = salt_base before in
  let jobs =
    List.init burst (fun i () ->
        let* fd = Loadgen.connect ~host:env.host ~port:env.port in
        Fun.protect ~finally:(fun () -> Fault.close fd) @@ fun () ->
        let* reply =
          Fault.rpc_line ~timeout_s:120. fd (heavy_line ~id:(5_000 + i) ~salt:(base + i))
        in
        match code_of reply with
        | Some "overloaded" -> Ok `Shed
        | Some other -> Error (Printf.sprintf "storm reply %d: code %s" i other)
        | None -> Ok `Answered)
  in
  let results = ref [] in
  let th =
    Thread.create
      (fun () ->
        results := (try in_threads jobs with exn -> [ Error (Printexc.to_string exn) ]))
      ()
  in
  Thread.delay 0.2;
  let health_during =
    match health env with
    | Ok j -> (
        match Json.member "status" j with
        | Some (Json.Str "ok") -> true
        | _ -> false)
    | Error _ -> false
  in
  Thread.join th;
  let* () = all_ok !results in
  let shed =
    List.length
      (List.filter (function Ok `Shed -> true | _ -> false) !results)
  in
  let answered =
    List.length
      (List.filter (function Ok `Answered -> true | _ -> false) !results)
  in
  if not health_during then
    Error "health probe failed mid-storm (admin path starved)"
  else if shed = 0 then
    Error
      (Printf.sprintf
         "no request shed in a %d-burst against queue_cap %d — admission \
          control never engaged"
         burst cap)
  else
    Ok
      (Printf.sprintf
         "burst %d against queue_cap %d: %d answered, %d shed as overloaded; \
          health answered mid-storm"
         burst cap answered shed)

(* Clock-skewed clients: deadlines that are already (or immediately)
   expired on arrival.  Every reply must be deadline_exceeded — a
   heavy sweep cannot finish inside 1ms — and the counter must account
   each one. *)
let scenario_deadline_skew env =
  let* before = counters env in
  let n = 3 in
  let base = salt_base before in
  let rec go i =
    if i >= n then Ok ()
    else
      let line =
        Json.to_string
          (Json.Obj
             [
               ("type", Json.Str "worst");
               ("id", Json.Int (6_000 + i));
               ("graph", Json.Str "ring:48");
               ("algorithm", Json.Str "fast");
               ("space", Json.Int 24);
               ("pairs", Json.Int 12);
               ("max_delay", Json.Int (64 + base + i));
               ("deadline_ms", Json.Int 1);
             ])
      in
      let* reply = rpc env line in
      match code_of reply with
      | Some "deadline_exceeded" -> go (i + 1)
      | Some other ->
          Error (Printf.sprintf "expired deadline %d answered with code %s" i other)
      | None -> Error (Printf.sprintf "expired deadline %d answered ok" i)
  in
  let* () = go 0 in
  let* () =
    poll ~what:"deadline_exceeded counter to advance" (fun () ->
        let* now = counters env in
        Ok
          ( now.ct_deadline >= before.ct_deadline + n,
            Printf.sprintf "deadline_exceeded %d -> %d" before.ct_deadline
              now.ct_deadline ))
  in
  Ok (Printf.sprintf "%d already-expired deadlines refused with partial progress" n)

(* Hostile frames: oversized lines, truncated and malformed JSON — all
   on one connection, which must survive to answer a clean query
   byte-identically at the end. *)
let scenario_garbage_frames env =
  let* before = counters env in
  let* fd = Loadgen.connect ~host:env.host ~port:env.port in
  Fun.protect ~finally:(fun () -> Fault.close fd) @@ fun () ->
  let expect_bad what line =
    let* reply = Fault.rpc_line fd line in
    match code_of reply with
    | Some "bad_request" -> Ok ()
    | Some other -> Error (Printf.sprintf "%s: code %s" what other)
    | None -> Error (Printf.sprintf "%s: accepted" what)
  in
  let* () = expect_bad "oversized line" (String.make 70_000 'x') in
  let* () = expect_bad "truncated json" {|{"type":"worst"|} in
  let* () =
    expect_bad "mistyped field" {|{"type":"worst","id":1,"graph":123}|}
  in
  let* () = expect_bad "binary garbage" "\x01\x02rendezvous\x03" in
  let clean = clean_line ~id:7_000 1 in
  let* reply = Fault.rpc_line fd clean in
  let* () =
    if String.equal reply (expected_for clean) then Ok ()
    else Error "clean query after garbage not byte-identical"
  in
  let* () =
    poll ~what:"bad_request counter to advance by 4" (fun () ->
        let* now = counters env in
        Ok
          ( now.ct_bad >= before.ct_bad + 4,
            Printf.sprintf "bad_request %d -> %d" before.ct_bad now.ct_bad ))
  in
  Ok "4 hostile frames refused; connection survived and answered a clean query"

(* --- catalog ------------------------------------------------------------- *)

let catalog =
  [
    ("slow_loris", scenario_slow_loris);
    ("partial_write", scenario_partial_write);
    ("disconnect_before_reply", scenario_disconnect_before_reply);
    ("churn", scenario_churn);
    ("queue_storm", scenario_queue_storm);
    ("deadline_skew", scenario_deadline_skew);
    ("garbage_frames", scenario_garbage_frames);
  ]

let names = List.map fst catalog

let run_scenario env name f =
  match f env with
  | exception exn ->
      { o_name = name; o_passed = false; o_detail = Printexc.to_string exn }
  | Error e -> { o_name = name; o_passed = false; o_detail = e }
  | Ok detail -> (
      match contract env with
      | Ok cdetail ->
          { o_name = name; o_passed = true; o_detail = detail ^ "; " ^ cdetail }
      | Error e ->
          {
            o_name = name;
            o_passed = false;
            o_detail = Printf.sprintf "%s; contract violated: %s" detail e;
          })

let run_one env name =
  match
    List.find_map
      (fun (n, f) -> if String.equal n name then Some f else None)
      catalog
  with
  | None ->
      Error
        (Printf.sprintf "unknown scenario %S (accepted: %s)" name
           (String.concat ", " names))
  | Some f -> Ok (run_scenario env name f)

let run_all ?only ~host ~port ~seed () =
  let env = { host; port; seed } in
  let wanted =
    match only with
    | None -> Ok catalog
    | Some names_wanted ->
        let rec pick acc = function
          | [] -> Ok (List.rev acc)
          | n :: rest -> (
              match
                List.find_opt (fun (cn, _) -> String.equal cn n) catalog
              with
              | Some entry -> pick (entry :: acc) rest
              | None ->
                  Error
                    (Printf.sprintf "unknown scenario %S (accepted: %s)" n
                       (String.concat ", " names)))
        in
        pick [] names_wanted
  in
  match wanted with
  | Error e -> Error e
  | Ok entries ->
      Ok (List.map (fun (name, f) -> run_scenario env name f) entries)

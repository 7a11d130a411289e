module Json = Rv_obs.Json

type mix = Cached | Mixed | Heavy | Index

let mix_of_string = function
  | "cached" -> Ok Cached
  | "mixed" -> Ok Mixed
  | "heavy" -> Ok Heavy
  | "index" -> Ok Index
  | other ->
      Error
        (Printf.sprintf "unknown mix %S (accepted: cached, mixed, heavy, index)"
           other)

(* The bake lattice the index mix hits — `rv bake` with exactly these
   arguments pre-answers every request the mix generates, so against an
   index-backed server the whole run is index hits. *)
let index_mix_graphs = "ring:6,ring:8,ring:10,ring:12"
let index_mix_algorithms = "cheap,fast"
let index_mix_spaces = "8"
let index_mix_pairs = "4"
let index_mix_max_delays = "8"

type server_stats = {
  srv_count : int;
  srv_p50_us : int;
  srv_p90_us : int;
  srv_p99_us : int;
  srv_max_us : int;
}

type summary = {
  requests : int;
  churned : int;
  ok : int;
  errors : int;
  overloaded : int;
  deadline_exceeded : int;
  elapsed_s : float;
  throughput_rps : float;
  lat_p50_us : int;
  lat_p90_us : int;
  lat_p99_us : int;
  lat_max_us : int;
  server : server_stats option;
  transcript : string list;
}

(* --- request generation ------------------------------------------------- *)

let worst_line ?max_delay ~id ~graph ~algorithm ~space ~pairs () =
  Json.to_string
    (Json.Obj
       ([
          ("type", Json.Str "worst");
          ("id", Json.Int id);
          ("graph", Json.Str graph);
          ("algorithm", Json.Str algorithm);
          ("space", Json.Int space);
          ("pairs", Json.Int pairs);
        ]
       @
       match max_delay with
       | None -> []
       | Some d -> [ ("max_delay", Json.Int d) ]))

let run_line ~id ~graph ~algorithm ~space ~label_a ~label_b =
  Json.to_string
    (Json.Obj
       [
         ("type", Json.Str "run");
         ("id", Json.Int id);
         ("graph", Json.Str graph);
         ("algorithm", Json.Str algorithm);
         ("space", Json.Int space);
         ("label_a", Json.Int label_a);
         ("label_b", Json.Int label_b);
       ])

(* The cached mix cycles through a small set of distinct questions, so
   after one lap every reply is a cache hit. *)
let cached_line ~id k =
  match k mod 6 with
  | 0 -> worst_line ~id ~graph:"ring:6" ~algorithm:"cheap" ~space:8 ~pairs:4 ()
  | 1 -> worst_line ~id ~graph:"ring:8" ~algorithm:"fast-sim" ~space:8 ~pairs:4 ()
  | 2 -> run_line ~id ~graph:"ring:8" ~algorithm:"cheap" ~space:8 ~label_a:1 ~label_b:2
  | 3 -> run_line ~id ~graph:"ring:10" ~algorithm:"fast" ~space:8 ~label_a:3 ~label_b:5
  | 4 -> worst_line ~id ~graph:"path:6" ~algorithm:"cheap" ~space:8 ~pairs:4 ()
  | _ -> run_line ~id ~graph:"star:5" ~algorithm:"cheap" ~space:8 ~label_a:2 ~label_b:7

(* The index mix cycles the 8 worst-case cells of the lattice above
   (explorer and max_delay ride on their protocol defaults, matching the
   bake's explorers=auto / max_delays=8). *)
let index_line ~id k =
  let graphs = [| "ring:6"; "ring:8"; "ring:10"; "ring:12" |] in
  let algorithms = [| "cheap"; "fast" |] in
  worst_line ~id ~graph:graphs.(k mod 4)
    ~algorithm:algorithms.(k / 4 mod 2)
    ~space:8 ~pairs:4 ()

(* Every heavy request is a distinct compute-bound question: label pairs
   walk the space so the canonical keys never repeat within a run. *)
let heavy_line ~id k =
  let la = 1 + (k mod 15) in
  let lb = 1 + ((k + 1 + (k / 15)) mod 15) in
  let lb = if lb = la then 1 + ((lb + 1) mod 15) else lb in
  run_line ~id ~graph:"ring:16" ~algorithm:"fast" ~space:16 ~label_a:la
    ~label_b:(if lb = la then la + 1 else lb)

(* Pre-generate the whole request stream with one seeded generator, in
   index order, before any thread starts: line [i] is a pure function of
   (mix, seed, requests). *)
let generate ~mix ~seed ~requests =
  let rng = Rv_util.Rng.create ~seed in
  Array.init requests (fun i ->
      match mix with
      | Cached -> cached_line ~id:i i
      | Heavy -> heavy_line ~id:i i
      | Index -> index_line ~id:i i
      | Mixed ->
          if Rv_util.Rng.int_in rng 0 9 < 8 then
            cached_line ~id:i (Rv_util.Rng.int_in rng 0 5)
          else heavy_line ~id:i (Rv_util.Rng.int_in rng 0 1000))

(* --- driving ------------------------------------------------------------ *)

let connect ~host ~port =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let rec go attempt =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if attempt >= 50 then
          Error
            (Printf.sprintf "connect %s:%d: %s" host port (Unix.error_message e))
        else begin
          Thread.delay 0.1;
          go (attempt + 1)
        end
  in
  go 0

(* [f ic oc] over channels on a connected [fd], which is then closed
   exactly once.  The two channels share the descriptor, so closing both
   is a double close: in a process that also runs the server (`rv chaos
   --soak`) the number can be handed to another thread's new connection
   between the two closes.  [close_out_noerr] flushes, closes the
   descriptor once and marks the channel closed, so no later flush
   writes to a recycled number.  The channels are made inside the
   handler: a dead descriptor is an [Error], not an escaping exception. *)
let with_conn fd f =
  match Unix.out_channel_of_descr fd with
  | exception (Sys_error msg | Unix.Unix_error (_, msg, _)) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error ("connection error: " ^ msg)
  | oc -> (
      Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
      try f (Unix.in_channel_of_descr fd) oc
      with Sys_error msg | Unix.Unix_error (_, msg, _) ->
        Error ("connection error: " ^ msg))

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

(* One-shot request/reply on a fresh connection: what the post-run
   scrape and the `rv obs` client use. *)
let rpc ?(host = "127.0.0.1") ~port line =
  match connect ~host ~port with
  | Error e -> Error e
  | Ok fd ->
      with_conn fd @@ fun ic oc ->
      send oc line;
      (match input_line ic with
      | reply -> Ok reply
      | exception End_of_file -> Error "connection closed before reply")

(* Read back the server's own view of the run: the 5m sliding window
   covers everything this load run observed client-side. *)
let scrape_server_stats ~host ~port =
  match rpc ~host ~port {|{"type":"metrics"}|} with
  | Error e -> Error e
  | Ok reply -> (
      match Json.parse reply with
      | Error e -> Error ("metrics reply: " ^ e)
      | Ok j -> (
          let geti name = Option.bind (Json.member name j) Json.to_int in
          match
            (geti "lat5m_count", geti "lat5m_p50_us", geti "lat5m_p90_us",
             geti "lat5m_p99_us", geti "lat5m_max_us")
          with
          | Some c, Some p50, Some p90, Some p99, Some mx ->
              Ok
                {
                  srv_count = c;
                  srv_p50_us = p50;
                  srv_p90_us = p90;
                  srv_p99_us = p99;
                  srv_max_us = mx;
                }
          | _ -> Error "metrics reply missing lat5m_* window fields"))

type worker_result = {
  mutable replies : (int * string) list;
  mutable latencies : int list;
  mutable failure : string option;
}

let drive_conn fd lines indices result =
  let rec go ic oc = function
    | [] -> Ok ()
    | i :: rest -> (
        let t0 = Clock.now_us () in
        send oc lines.(i);
        match input_line ic with
        | reply ->
            let dt = int_of_float (Clock.now_us () -. t0) in
            result.replies <- (i, reply) :: result.replies;
            result.latencies <- dt :: result.latencies;
            go ic oc rest
        | exception End_of_file ->
            Error
              (Printf.sprintf "connection closed before reply to request %d" i))
  in
  match with_conn fd (fun ic oc -> go ic oc indices) with
  | Ok () -> ()
  | Error msg -> result.failure <- Some msg

let percentile sorted p =
  if Array.length sorted = 0 then 0 else Rv_util.Stats.percentile sorted p

let classify reply =
  match Json.parse reply with
  | Error _ -> `Error None
  | Ok j -> (
      match Json.member "status" j with
      | Some (Json.Str "ok") -> `Ok
      | _ -> (
          match Json.member "code" j with
          | Some (Json.Str c) -> `Error (Some c)
          | _ -> `Error None))

(* Churn cycles: connect, one request, disconnect — the registry-heavy
   load pattern.  Ids continue the main stream ([requests + k]) and the
   request for cycle [k] is [cached_line k], so churn replies are as
   deterministic as the dealt stream and merge into the same sorted
   transcript. *)
let drive_churn ~host ~port ~requests ~churn result =
  let rec go k =
    if k < churn && Option.is_none result.failure then begin
      (match connect ~host ~port with
      | Error e -> result.failure <- Some ("churn connect: " ^ e)
      | Ok fd -> (
          let t0 = Clock.now_us () in
          match
            with_conn fd (fun ic oc ->
                send oc (cached_line ~id:(requests + k) k);
                match input_line ic with
                | reply -> Ok (reply, int_of_float (Clock.now_us () -. t0))
                | exception End_of_file ->
                    Error
                      (Printf.sprintf
                         "connection closed before reply to cycle %d" k))
          with
          | Ok (reply, dt) ->
              result.replies <- (requests + k, reply) :: result.replies;
              result.latencies <- dt :: result.latencies
          | Error msg -> result.failure <- Some ("churn: " ^ msg)));
      go (k + 1)
    end
  in
  go 0

let run ?(host = "127.0.0.1") ~port ~conns ~requests ~seed ~mix ?(churn = 0) () =
  if conns < 1 then Error "loadgen: conns must be >= 1"
  else if requests < 1 then Error "loadgen: requests must be >= 1"
  else if churn < 0 then Error "loadgen: churn must be >= 0"
  else begin
    let lines = generate ~mix ~seed ~requests in
    let conns = min conns requests in
    (* Round-robin deal, each connection's share in increasing id order. *)
    let share k =
      List.init ((requests - k + conns - 1) / conns) (fun j -> k + (j * conns))
    in
    let sockets = List.init conns (fun _ -> connect ~host ~port) in
    match List.find_opt Result.is_error sockets with
    | Some (Error e) ->
        List.iter
          (function
            | Ok fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
            | Error _ -> ())
          sockets;
        Error e
    | _ ->
        let fds =
          List.filter_map (function Ok fd -> Some fd | Error _ -> None) sockets
        in
        let results =
          List.map
            (fun _ -> { replies = []; latencies = []; failure = None })
            fds
        in
        let t0 = Clock.now_us () in
        let churn_result = { replies = []; latencies = []; failure = None } in
        let threads =
          List.mapi
            (fun k (fd, result) ->
              Thread.create (fun () -> drive_conn fd lines (share k) result) ())
            (List.combine fds results)
        in
        let churn_thread =
          if churn = 0 then None
          else
            Some
              (Thread.create
                 (fun () ->
                   try drive_churn ~host ~port ~requests ~churn churn_result
                   with exn ->
                     churn_result.failure <-
                       Some ("churn: " ^ Printexc.to_string exn))
                 ())
        in
        List.iter Thread.join threads;
        Option.iter Thread.join churn_thread;
        let results = results @ [ churn_result ] in
        let elapsed_s = (Clock.now_us () -. t0) /. 1_000_000. in
        match List.find_map (fun r -> r.failure) results with
        | Some msg -> Error msg
        | None ->
            (* Post-run scrape on its own connection; a failure degrades
               to [server = None] rather than failing the run. *)
            let server = Result.to_option (scrape_server_stats ~host ~port) in
            let replies = List.concat_map (fun r -> r.replies) results in
            let transcript =
              List.map snd
                (List.sort
                   (fun (a, _) (b, _) -> Rv_util.Ord.int a b)
                   replies)
            in
            let lat =
              Array.of_list (List.concat_map (fun r -> r.latencies) results)
            in
            Array.sort Rv_util.Ord.int lat;
            let ok = ref 0
            and errors = ref 0
            and over = ref 0
            and dead = ref 0 in
            List.iter
              (fun reply ->
                match classify reply with
                | `Ok -> incr ok
                | `Error code ->
                    incr errors;
                    (match code with
                    | Some "overloaded" -> incr over
                    | Some "deadline_exceeded" -> incr dead
                    | _ -> ()))
              transcript;
            Ok
              {
                requests;
                churned = churn;
                ok = !ok;
                errors = !errors;
                overloaded = !over;
                deadline_exceeded = !dead;
                elapsed_s;
                throughput_rps =
                  (if elapsed_s > 0. then float_of_int requests /. elapsed_s
                   else 0.);
                lat_p50_us = percentile lat 0.50;
                lat_p90_us = percentile lat 0.90;
                lat_p99_us = percentile lat 0.99;
                lat_max_us = (if Array.length lat = 0 then 0 else lat.(Array.length lat - 1));
                server;
                transcript;
              }
  end

(* A server should never report a higher p50 than its clients measured:
   the server interval (parse to reply-render) nests strictly inside the
   client interval (write to read).  Comparison is at log2-bucket
   resolution — the window reports bucket upper bounds, the client exact
   microseconds — so only a genuine clock or accounting bug trips it. *)
let server_clock_check s =
  match s.server with
  | None -> Ok ()
  | Some srv ->
      if srv.srv_count = 0 then Ok ()
      else if
        Rv_obs.Histogram.bucket_of srv.srv_p50_us
        > Rv_obs.Histogram.bucket_of s.lat_p50_us
      then
        Error
          (Printf.sprintf
             "server p50 (%dus) exceeds client p50 (%dus): server-side \
              latency accounting is broken"
             srv.srv_p50_us s.lat_p50_us)
      else Ok ()

let summary_json s =
  Json.Obj
    ([
      ("requests", Json.Int s.requests);
      ("churned", Json.Int s.churned);
      ("ok", Json.Int s.ok);
      ("errors", Json.Int s.errors);
      ("overloaded", Json.Int s.overloaded);
      ("deadline_exceeded", Json.Int s.deadline_exceeded);
      ("elapsed_s", Json.Float s.elapsed_s);
      ("throughput_rps", Json.Float s.throughput_rps);
      ("lat_p50_us", Json.Int s.lat_p50_us);
      ("lat_p90_us", Json.Int s.lat_p90_us);
      ("lat_p99_us", Json.Int s.lat_p99_us);
      ("lat_max_us", Json.Int s.lat_max_us);
    ]
    @
    match s.server with
    | None -> []
    | Some srv ->
        [
          ( "server",
            Json.Obj
              [
                ("count", Json.Int srv.srv_count);
                ("p50_us", Json.Int srv.srv_p50_us);
                ("p90_us", Json.Int srv.srv_p90_us);
                ("p99_us", Json.Int srv.srv_p99_us);
                ("max_us", Json.Int srv.srv_max_us);
              ] );
        ])

let print_summary out s =
  Printf.fprintf out
    "requests %d (+%d churned)  ok %d  errors %d (overloaded %d, deadline %d)\n\
     elapsed %.3fs  throughput %.0f req/s\n\
     client  latency p50 %dus  p90 %dus  p99 %dus  max %dus\n"
    s.requests s.churned s.ok s.errors s.overloaded s.deadline_exceeded
    s.elapsed_s s.throughput_rps s.lat_p50_us s.lat_p90_us s.lat_p99_us
    s.lat_max_us;
  match s.server with
  | None ->
      Printf.fprintf out "server  window stats unavailable (scrape failed)\n"
  | Some srv ->
      Printf.fprintf out
        "server  latency p50 %dus  p90 %dus  p99 %dus  max %dus  (5m \
         sliding window, %d samples)\n"
        srv.srv_p50_us srv.srv_p90_us srv.srv_p99_us srv.srv_max_us
        srv.srv_count

(* Tests for the rv_chaos harness: the hostile-client framing primitives
   against a loopback echo server, the soak drift fit, the Prometheus
   scrape parser, and the fuzz/shrink/fixture pipeline driven through
   the test-only planted fault. *)

module Fault = Rv_chaos.Fault
module Fuzz = Rv_chaos.Fuzz
module Shrink = Rv_chaos.Shrink
module Soak = Rv_chaos.Soak
module Scrape = Rv_chaos.Scrape
module Scenario = Rv_chaos.Scenario
module Loadgen = Rv_serve.Loadgen
module Server = Rv_serve.Server
module Rng = Rv_util.Rng

let tc name f = Alcotest.test_case name `Quick f

(* --- loopback echo server ---------------------------------------------- *)

(* A one-connection echo: every newline-terminated frame is echoed back
   verbatim, and whatever fragment is left at EOF is recorded but not
   echoed (there is nobody to echo it to).  What it [seen] gives the
   framing tests an observer on the receive side of the socket. *)
let with_echo_server f =
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt srv Unix.SO_REUSEADDR true;
  Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen srv 1;
  let port =
    match Unix.getsockname srv with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let seen = ref [] in
  let th =
    Thread.create
      (fun () ->
        try
          let fd, _ = Unix.accept srv in
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          (try
             let rec loop () =
               let line = input_line ic in
               seen := line :: !seen;
               output_string oc line;
               output_char oc '\n';
               flush oc;
               loop ()
             in
             loop ()
           with End_of_file | Sys_error _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ()
        with exn ->
          seen := ("echo server died: " ^ Printexc.to_string exn) :: !seen)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* Join before closing the listen socket: the echo thread may not
         have reached [accept] yet, and closing under it turns a queued
         connection into EBADF. *)
      Thread.join th;
      try Unix.close srv with Unix.Unix_error _ -> ())
    (fun () -> f port seen)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* A byte-dripped frame must arrive as one line: the receiver sees the
   full frame, and the echo comes back byte-identical. *)
let test_drip_framing () =
  with_echo_server @@ fun port seen ->
  let line = {|{"type":"run","id":7,"graph":"ring:8"}|} in
  let fd = ok (Rv_serve.Loadgen.connect ~host:"127.0.0.1" ~port) in
  Fun.protect ~finally:(fun () -> Fault.close fd) @@ fun () ->
  ok (Fault.drip_line ~chunk:3 ~pause_s:0.002 fd line);
  let reply = ok (Fault.recv_line fd) in
  Alcotest.(check string) "echoed frame" line reply;
  Alcotest.(check (list string)) "receiver saw one whole frame" [ line ] !seen

(* A half-written frame followed by FIN must surface on the receive side
   as exactly the sent prefix — no newline, nothing invented. *)
let test_partial_write_framing () =
  let line = {|{"type":"run","id":8,"graph":"ring:8","space":8}|} in
  let keep = String.length line / 2 in
  let seen_at_eof =
    with_echo_server @@ fun port seen ->
    let fd = ok (Rv_serve.Loadgen.connect ~host:"127.0.0.1" ~port) in
    ok (Fault.send_partial fd line ~keep);
    Fault.close fd;
    (* with_echo_server joins the echo thread before returning *)
    seen
  in
  Alcotest.(check (list string))
    "receiver saw the bare prefix" [ String.sub line 0 keep ] !seen_at_eof

(* --- soak drift fit ----------------------------------------------------- *)

let test_fit_line () =
  let f = Soak.fit_line [ (0., 10.); (1., 12.); (2., 14.) ] in
  Alcotest.(check int) "n" 3 f.Soak.f_n;
  Alcotest.(check (float 1e-9)) "mean" 12. f.Soak.f_mean;
  Alcotest.(check (float 1e-9)) "slope" 2. f.Soak.f_slope_per_s;
  Alcotest.(check (float 1e-9)) "growth" 4. f.Soak.f_growth;
  Alcotest.(check (float 1e-9)) "first" 10. f.Soak.f_first;
  Alcotest.(check (float 1e-9)) "last" 14. f.Soak.f_last;
  let empty = Soak.fit_line [] in
  Alcotest.(check int) "empty n" 0 empty.Soak.f_n;
  let one = Soak.fit_line [ (5., 42.) ] in
  Alcotest.(check (float 1e-9)) "single slope" 0. one.Soak.f_slope_per_s;
  let instant = Soak.fit_line [ (5., 42.); (5., 50.) ] in
  Alcotest.(check (float 1e-9)) "zero time range slope" 0. instant.Soak.f_slope_per_s

(* Noise around a constant is flat; a steady climb is not; the absolute
   floor forgives growth that is large relative to a tiny mean. *)
let test_flat_classification () =
  let series slope base =
    List.init 60 (fun i ->
        let t = float_of_int i in
        (t, base +. (slope *. t) +. (if i mod 2 = 0 then 50. else -50.)))
  in
  let steady = Soak.fit_line (series 0. 1_000_000.) in
  Alcotest.(check bool) "steady is flat" true
    (Soak.flat ~drift_frac:0.25 ~floor:1. steady);
  let leak = Soak.fit_line (series 10_000. 1_000_000.) in
  Alcotest.(check bool) "climb is drift" false
    (Soak.flat ~drift_frac:0.25 ~floor:1. leak);
  let tiny = Soak.fit_line (series 3. 10.) in
  Alcotest.(check bool) "small-absolute growth is floored away" true
    (Soak.flat ~drift_frac:0.25 ~floor:16_384. tiny)

(* --- prometheus scrape parser ------------------------------------------- *)

let test_scrape_parse () =
  let body =
    "# HELP rv_x stuff\n# TYPE rv_x counter\nrv_x 41\n\
     rv_lat{kind=\"all\",quantile=\"0.99\"} 12.5\n\n"
  in
  (match Scrape.parse body with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok samples ->
      Alcotest.(check int) "two parsed samples" 2 (List.length samples);
      Alcotest.(check (option (float 1e-9)))
        "bare family" (Some 41.)
        (Scrape.value samples "rv_x");
      Alcotest.(check (option (float 1e-9)))
        "labelled family" (Some 12.5)
        (Scrape.value
           ~labels:[ ("kind", "all"); ("quantile", "0.99") ]
           samples "rv_lat");
      Alcotest.(check (option (float 1e-9)))
        "label mismatch" None
        (Scrape.value ~labels:[ ("kind", "run") ] samples "rv_lat"));
  (* The only producer is the server's own renderer, so the parser is
     strict: a mangled line fails the whole scrape rather than silently
     thinning the series the drift fit runs on. *)
  match Scrape.parse "broken{ 3\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mangled exposition accepted"

(* --- fuzz cells ---------------------------------------------------------- *)

let test_cell_roundtrip () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 50 do
    let c = Fuzz.gen rng in
    Alcotest.(check bool) "generated cell valid" true (Fuzz.valid c);
    let kv =
      List.map
        (fun field ->
          match String.index_opt field '=' with
          | Some i ->
              ( String.sub field 0 i,
                String.sub field (i + 1) (String.length field - i - 1) )
          | None -> Alcotest.failf "bad field %S" field)
        (String.split_on_char ' ' (Fuzz.cell_to_string c))
    in
    match Fuzz.cell_of_kv kv with
    | Error e -> Alcotest.failf "roundtrip failed: %s" e
    | Ok c' ->
        Alcotest.(check string)
          "roundtrip" (Fuzz.cell_to_string c) (Fuzz.cell_to_string c')
  done

(* With the hook installed, eval must flag exactly the planted cells. *)
let with_plant f =
  Fuzz.set_planted_fault (Some Fuzz.planted_default);
  Fun.protect ~finally:(fun () -> Fuzz.set_planted_fault None) f

let planted_cell =
  {
    Fuzz.c_family = "ring";
    c_size = 14;
    c_algorithm = "fwr:2";
    c_space = 16;
    c_label_a = 5;
    c_label_b = 9;
    c_start_a = 3;
    c_start_b = 7;
    c_delay_a = 4;
    c_delay_b = 5;
    c_parachute = true;
  }

let test_planted_fault_scoped () =
  Alcotest.(check bool) "planted cell triggers the plant" true
    (Fuzz.planted_default planted_cell);
  (match Fuzz.eval Fuzz.Traj_vs_sim planted_cell with
  | Ok () -> ()
  | Error m ->
      Alcotest.failf "clean tree reported a mismatch: %s vs %s"
        m.Fuzz.m_expected m.Fuzz.m_actual);
  with_plant @@ fun () ->
  match Fuzz.eval Fuzz.Traj_vs_sim planted_cell with
  | Ok () -> Alcotest.fail "planted fault not detected"
  | Error m ->
      Alcotest.(check bool) "expected and actual differ" false
        (String.equal m.Fuzz.m_expected m.Fuzz.m_actual)

(* The shrinker must walk the planted mismatch down to its known fixed
   point: every field at its floor except the two the plant constrains
   (size >= 6, delay_b >= 2), and the same minimum from any seed cell
   because the plant is monotone in both. *)
let test_shrinker_converges () =
  with_plant @@ fun () ->
  let oracle c = Result.is_error (Fuzz.eval Fuzz.Traj_vs_sim c) in
  Alcotest.(check bool) "start cell fails" true (oracle planted_cell);
  let minimal, stats = Shrink.shrink ~oracle planted_cell in
  Alcotest.(check string) "family preserved" "ring" minimal.Fuzz.c_family;
  Alcotest.(check int) "size at plant floor" 6 minimal.Fuzz.c_size;
  Alcotest.(check int) "delay_b at plant floor" 2 minimal.Fuzz.c_delay_b;
  Alcotest.(check int) "delay_a at zero" 0 minimal.Fuzz.c_delay_a;
  Alcotest.(check string) "simplest algorithm" "cheap" minimal.Fuzz.c_algorithm;
  Alcotest.(check int) "space at floor" 2 minimal.Fuzz.c_space;
  Alcotest.(check (pair int int))
    "labels at floor" (1, 2)
    (minimal.Fuzz.c_label_a, minimal.Fuzz.c_label_b);
  Alcotest.(check (pair int int))
    "starts at floor" (0, 1)
    (minimal.Fuzz.c_start_a, minimal.Fuzz.c_start_b);
  Alcotest.(check bool) "waiting model" false minimal.Fuzz.c_parachute;
  Alcotest.(check bool) "oracle holds at the minimum" true (oracle minimal);
  Alcotest.(check bool) "accepted <= steps" true
    (stats.Shrink.s_accepted <= stats.Shrink.s_steps);
  (* Determinism: the same walk again, and from a different seed cell. *)
  let minimal2, stats2 = Shrink.shrink ~oracle planted_cell in
  Alcotest.(check string)
    "same minimum again"
    (Fuzz.cell_to_string minimal)
    (Fuzz.cell_to_string minimal2);
  Alcotest.(check int) "same step count" stats.Shrink.s_steps
    stats2.Shrink.s_steps;
  let other =
    { planted_cell with Fuzz.c_size = 11; c_delay_b = 4; c_label_a = 2 }
  in
  let minimal3, _ = Shrink.shrink ~oracle other in
  Alcotest.(check string)
    "same minimum from another start"
    (Fuzz.cell_to_string minimal)
    (Fuzz.cell_to_string minimal3)

(* The whole pipeline is a pure function of the seed: same seed, same
   first mismatch, same shrunk cell. *)
let test_fuzz_run_deterministic () =
  with_plant @@ fun () ->
  let go () =
    let r =
      Fuzz.run ~checks:[ Fuzz.Traj_vs_sim ] ~seed:23 ~cells:2_000 ~budget_s:0.
        ()
    in
    match r.Fuzz.mismatch with
    | None -> Alcotest.fail "planted fault never drawn in 2000 cells"
    | Some m ->
        let oracle c = Result.is_error (Fuzz.eval m.Fuzz.m_check c) in
        let minimal, _ = Shrink.shrink ~oracle m.Fuzz.m_cell in
        (r.Fuzz.cells_run, Fuzz.cell_to_string m.Fuzz.m_cell,
         Fuzz.cell_to_string minimal)
  in
  let cells1, first1, min1 = go () in
  let cells2, first2, min2 = go () in
  Alcotest.(check int) "same cell count" cells1 cells2;
  Alcotest.(check string) "same first mismatch" first1 first2;
  Alcotest.(check string) "same minimum" min1 min2

(* --- fixtures ------------------------------------------------------------ *)

let tmp_fixture_dir =
  lazy
    (let dir =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "rv_chaos_test_%d" (Unix.getpid ()))
     in
     dir)

let test_fixture_roundtrip () =
  let m =
    {
      Fuzz.m_check = Fuzz.Traj_vs_sim;
      m_cell = planted_cell;
      m_expected = "met=true cost=1";
      m_actual = "met=true cost=2";
    }
  in
  let dir = Lazy.force tmp_fixture_dir in
  let path = Shrink.write_fixture ~dir m in
  Alcotest.(check string)
    "named by content hash"
    (Filename.concat dir (Shrink.fixture_name m))
    path;
  (match Shrink.read_fixture path with
  | Error e -> Alcotest.failf "read back failed: %s" e
  | Ok (check, cell) ->
      Alcotest.(check string)
        "check preserved"
        (Fuzz.check_to_string m.Fuzz.m_check)
        (Fuzz.check_to_string check);
      Alcotest.(check string)
        "cell preserved"
        (Fuzz.cell_to_string m.Fuzz.m_cell)
        (Fuzz.cell_to_string cell));
  (* Same mismatch, same bytes: rewriting must be byte-stable. *)
  let read_all p =
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let before = read_all path in
  let path2 = Shrink.write_fixture ~dir m in
  Alcotest.(check string) "stable path" path path2;
  Alcotest.(check string) "stable bytes" before (read_all path2);
  Sys.remove path

(* Every committed reproducer must stay fixed: replaying it on the
   current tree finds no mismatch.  (Planted-fault fixtures are never
   committed — they only exist to exercise this very pipeline.) *)
let test_replay_committed_fixtures () =
  let dir = Test_data.path "fixtures" in
  let entries = Sys.readdir dir in
  Array.sort String.compare entries;
  Array.iter
    (fun entry ->
      if Filename.check_suffix entry ".repro" then begin
        let path = Filename.concat dir entry in
        match Shrink.read_fixture path with
        | Error e -> Alcotest.failf "%s: unreadable: %s" entry e
        | Ok (check, cell) -> (
            match Fuzz.eval check cell with
            | Ok () -> ()
            | Error m ->
                Alcotest.failf "%s: regressed:\n  expected %s\n  actual   %s"
                  entry m.Fuzz.m_expected m.Fuzz.m_actual)
      end)
    entries

(* --- the in-process serve oracle ----------------------------------------- *)

(* A live server's reply must be the bytes [Scenario.expected_for]
   renders in process, error replies included: a label outside the
   space and a [file:] graph are bad requests on both sides. *)
let test_oracle_matches_served () =
  let server = Server.start Server.default_config in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let port = Server.port server in
  List.iter
    (fun (what, code, line) ->
      let reply = ok (Loadgen.rpc ~port line) in
      Alcotest.(check string) what (Scenario.expected_for line) reply;
      let served_code =
        match Rv_obs.Json.parse reply with
        | Ok j -> Option.bind (Rv_obs.Json.member "code" j) Rv_obs.Json.to_str
        | Error e -> Alcotest.failf "%s: unparseable reply: %s" what e
      in
      Alcotest.(check (option string)) (what ^ ": error code") code served_code)
    [
      ( "clean run",
        None,
        Loadgen.run_line ~id:1 ~graph:"ring:8" ~algorithm:"cheap" ~space:8 ~label_a:1
          ~label_b:2 );
      ( "label outside the space",
        Some "bad_request",
        Loadgen.run_line ~id:2 ~graph:"ring:8" ~algorithm:"cheap" ~space:8 ~label_a:9
          ~label_b:2 );
      ( "worst on a file: graph",
        Some "bad_request",
        Loadgen.worst_line ~id:3 ~graph:"file:ring8.graph" ~algorithm:"cheap" ~space:8
          ~pairs:2 () );
    ]

let () =
  Alcotest.run "rv_chaos"
    [
      ( "fault",
        [
          tc "drip keeps framing" test_drip_framing;
          tc "partial write surfaces bare prefix" test_partial_write_framing;
        ] );
      ( "soak",
        [
          tc "fit_line least squares" test_fit_line;
          tc "flat classification" test_flat_classification;
        ] );
      ("scrape", [ tc "prometheus exposition parser" test_scrape_parse ]);
      ("oracle", [ tc "served replies match the in-process oracle" test_oracle_matches_served ]);
      ( "fuzz",
        [
          tc "cell to-string/of-kv roundtrip" test_cell_roundtrip;
          tc "planted fault is scoped and detected" test_planted_fault_scoped;
          tc "fuzz run deterministic per seed" test_fuzz_run_deterministic;
        ] );
      ( "shrink",
        [
          tc "converges to the planted fixed point" test_shrinker_converges;
          tc "fixture roundtrip and byte stability" test_fixture_roundtrip;
          tc "committed fixtures stay fixed" test_replay_committed_fixtures;
        ] );
    ]

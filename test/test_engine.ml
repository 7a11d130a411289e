(* Tests for rv_engine: the domain pool's lifecycle and scheduling, the
   deterministic nested map, JSONL/CSV record round-trips, the sinks, and
   — the guarantee everything else leans on — parallel Workload.worst_for
   being bit-for-bit equal to sequential across graph families and
   algorithms, including the streamed record order. *)

module Pool = Rv_engine.Pool
module Sweep = Rv_engine.Sweep
module Progress = Rv_engine.Progress
module Record = Rv_engine.Record
module Sink = Rv_engine.Sink
module W = Rv_experiments.Workload
module R = Rv_core.Rendezvous

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ Pool *)

let test_pool_shutdown_no_tasks () =
  let pool = Pool.create ~jobs:3 () in
  Alcotest.(check int) "jobs" 3 (Pool.jobs pool);
  Pool.shutdown pool;
  (* Idempotent: a second shutdown must be a no-op, not a hang. *)
  Pool.shutdown pool

let test_pool_more_tasks_than_domains () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let total = 100 in
      let hits = Array.make total 0 in
      Pool.run pool ~total (fun i -> hits.(i) <- hits.(i) + (i * i));
      Array.iteri
        (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) v)
        hits)

let test_pool_reused_across_submissions () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let sum n =
        let slots = Array.make n 0 in
        Pool.run pool ~total:n (fun i -> slots.(i) <- i + 1);
        Array.fold_left ( + ) 0 slots
      in
      Alcotest.(check int) "first run" 55 (sum 10);
      Alcotest.(check int) "empty run" 0 (sum 0);
      Alcotest.(check int) "second run" 5050 (sum 100))

let test_pool_sequential_fallback () =
  let pool = Pool.create ~jobs:1 () in
  let order = ref [] in
  Pool.run pool ~total:5 (fun i -> order := i :: !order);
  Alcotest.(check (list int)) "inline, in order" [ 0; 1; 2; 3; 4 ] (List.rev !order);
  Pool.shutdown pool

let test_pool_propagates_exception () =
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.check_raises "task exception reaches the caller"
        (Failure "boom")
        (fun () -> Pool.run pool ~total:8 (fun i -> if i = 3 then failwith "boom"));
      (* The pool must still be usable afterwards. *)
      let slots = Array.make 4 0 in
      Pool.run pool ~total:4 (fun i -> slots.(i) <- 1);
      Alcotest.(check int) "pool alive after exception" 4 (Array.fold_left ( + ) 0 slots))

(* ----------------------------------------------------------------- Sweep *)

(* The sweep's one decomposition: ragged outer counts, zeros included,
   flattened onto one task space.  A 4-domain pool must return the
   sequential shape and values, and a deliberately non-commutative fold
   over them in (outer, inner) order must agree: order differences
   would show. *)
let test_map_nested_matches_sequential () =
  let counts = [| 0; 3; 1; 0; 0; 8; 2; 0; 5 |] in
  let f o i = ((o * 7919) + (i * 104729)) mod 101 in
  let fold cells =
    Array.fold_left (Array.fold_left (fun acc v -> (acc * 31) + v)) 17 cells
  in
  let seq = Sweep.map_nested counts f in
  Alcotest.(check (array int)) "shape" counts (Array.map Array.length seq);
  Array.iteri
    (fun o row ->
      Array.iteri (fun i v -> Alcotest.(check int) (Printf.sprintf "cell %d.%d" o i) (f o i) v) row)
    seq;
  Pool.with_pool ~jobs:4 (fun pool ->
      let par = Sweep.map_nested ~pool ~chunk:1 counts f in
      Alcotest.(check (array (array int))) "parallel cells equal sequential" seq par;
      Alcotest.(check int) "parallel fold equals sequential" (fold seq) (fold par));
  Alcotest.(check (array (array int))) "all outers empty" [| [||]; [||] |]
    (Sweep.map_nested [| 0; 0 |] f)

(* -------------------------------------------------------------- Progress *)

let test_progress_counters () =
  let p = Progress.create ~total:4 () in
  Pool.with_pool ~jobs:2 (fun pool ->
      Pool.run pool ~total:4 (fun i ->
          Progress.tick p;
          Progress.observe p ~time:(10 * (i + 1)) ~cost:(40 - (10 * i))));
  Alcotest.(check int) "completed" 4 (Progress.completed p);
  Alcotest.(check int) "worst time" 40 (Progress.worst_time p);
  Alcotest.(check int) "worst cost" 40 (Progress.worst_cost p);
  Alcotest.(check bool) "elapsed >= 0" true (Progress.elapsed p >= 0.)

let test_progress_throughput_eta () =
  (* Untouched counters: no throughput, no ETA. *)
  let p = Progress.create ~total:10 () in
  Alcotest.(check (option (float 0.001))) "eta before any tick" None (Progress.eta p);
  (* Half done: throughput is completed/elapsed and the ETA extrapolates
     the remaining half at the same rate, so it equals the elapsed time
     its own clock read saw.  Each call reads the clock, so both are
     bracketed by elapsed readings taken before and after them. *)
  for _ = 1 to 5 do Progress.tick p done;
  Unix.sleepf 0.02;
  let e1 = Progress.elapsed p in
  let eta = Progress.eta p in
  let tp = Progress.throughput p in
  let e2 = Progress.elapsed p in
  let within id lo hi v =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %g <= %g <= %g" id lo v hi)
      true
      (lo -. 1e-9 <= v && v <= hi +. 1e-9)
  in
  Alcotest.(check bool) "throughput positive" true (tp > 0.);
  within "throughput = completed / elapsed" (5. /. e2) (5. /. e1) tp;
  (match eta with
  | None -> Alcotest.fail "eta expected mid-flight"
  | Some eta -> within "eta = remaining / rate" e1 e2 eta);
  (* Finished: no ETA, throughput still defined. *)
  for _ = 1 to 5 do Progress.tick p done;
  Alcotest.(check (option (float 0.001))) "eta when done" None (Progress.eta p);
  Alcotest.(check bool) "throughput after finish" true (Progress.throughput p > 0.);
  (* Unknown total: never an ETA. *)
  let q = Progress.create () in
  Progress.tick q;
  Alcotest.(check (option (float 0.001))) "eta without total" None (Progress.eta q);
  (* The one-line report mentions the pace once derivable. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report has tasks/s" true
    (contains (Progress.report p) "tasks/s")

(* ---------------------------------------------------------------- Record *)

let sample_record =
  {
    Record.graph = "ring:64";
    algorithm = "fast";
    label_a = 3;
    label_b = 11;
    start_a = 0;
    start_b = 32;
    delay_a = 0;
    delay_b = 5;
    met = true;
    time = 812;
    cost = 422;
  }

let test_jsonl_roundtrip () =
  let cases =
    [
      sample_record;
      { sample_record with met = false; time = 0; cost = 0 };
      { sample_record with graph = "file:/tmp/a \"b\"\\c,\td"; algorithm = "fwr(w=2)" };
      { sample_record with label_a = -1; delay_b = 1000000 };
    ]
  in
  List.iter
    (fun r ->
      match Record.of_json (Record.to_json r) with
      | Ok r' -> Alcotest.(check bool) "roundtrip" true (r = r')
      | Error e -> Alcotest.fail ("of_json: " ^ e))
    cases;
  (* Field reordering and whitespace tolerance. *)
  (match
     Record.of_json
       {| { "met" : true , "graph" : "g" , "algorithm" : "a", "time": 1,
            "cost": 2, "label_a": 3, "label_b": 4, "start_a": 5,
            "start_b": 6, "delay_a": 0, "delay_b": 7 } |}
   with
  | Ok r -> Alcotest.(check string) "reordered graph" "g" r.Record.graph
  | Error e -> Alcotest.fail ("reordered: " ^ e));
  (* Malformed input is an Error, not an exception: an int literal past
     [max_int], a bare minus sign, an integral float and a null are all
     rejected. *)
  let line ?(label_a = "3") ?(met = "true") ?(time = "1") () =
    Printf.sprintf
      {|{"graph":"g","algorithm":"a","label_a":%s,"label_b":4,"start_a":5,"start_b":6,"delay_a":0,"delay_b":7,"met":%s,"time":%s,"cost":2}|}
      label_a met time
  in
  (match Record.of_json (line ()) with
  | Ok r -> Alcotest.(check int) "template parses" 3 r.Record.label_a
  | Error e -> Alcotest.fail ("template: " ^ e));
  List.iter
    (fun bad ->
      match Record.of_json bad with
      | Ok _ -> Alcotest.fail ("accepted malformed: " ^ bad)
      | Error _ -> ()
      | exception e -> Alcotest.failf "raised %s on: %s" (Printexc.to_string e) bad)
    [ ""; "{"; "not json"; {|{"graph":"g"}|}; Record.to_json sample_record ^ "x"; "[]";
      line ~label_a:"99999999999999999999" (); line ~label_a:"-" ();
      line ~time:"1.0" (); line ~met:"null" () ]

let test_csv () =
  Alcotest.(check string) "header columns"
    "graph,algorithm,label_a,label_b,start_a,start_b,delay_a,delay_b,met,time,cost"
    Record.csv_header;
  let r = { sample_record with graph = "a,\"b\"" } in
  Alcotest.(check string) "quoted row"
    "\"a,\"\"b\"\"\",fast,3,11,0,32,0,5,true,812,422" (Record.to_csv r)

(* The templates the writers replaced, kept as the oracle: [Printf] over
   the old escapers. *)
module Oracle = struct
  let json_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let to_json (r : Record.t) =
    Printf.sprintf
      {|{"graph":"%s","algorithm":"%s","label_a":%d,"label_b":%d,"start_a":%d,"start_b":%d,"delay_a":%d,"delay_b":%d,"met":%b,"time":%d,"cost":%d}|}
      (json_escape r.graph) (json_escape r.algorithm) r.label_a r.label_b r.start_a
      r.start_b r.delay_a r.delay_b r.met r.time r.cost

  let csv_escape s =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then begin
      let b = Buffer.create (String.length s + 2) in
      Buffer.add_char b '"';
      String.iter
        (fun c -> if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
        s;
      Buffer.add_char b '"';
      Buffer.contents b
    end
    else s

  let to_csv (r : Record.t) =
    Printf.sprintf "%s,%s,%d,%d,%d,%d,%d,%d,%b,%d,%d" (csv_escape r.graph)
      (csv_escape r.algorithm) r.label_a r.label_b r.start_a r.start_b r.delay_a
      r.delay_b r.met r.time r.cost
end

(* Strings over the bytes the escapers single out, or any bytes at all;
   ints over the whole range with the table's and [int]'s edges forced
   in. *)
let record_gen =
  let open QCheck.Gen in
  let special =
    oneofl [ '"'; '\\'; ','; '\n'; '\r'; '\t'; '\000'; '\031'; '\127'; '\200'; 'a'; ' ' ]
  in
  let str = oneof [ string_size ~gen:special (0 -- 12); string; string_printable ] in
  let int = oneof [ int; small_signed_int; oneofl [ min_int; max_int; 0; -1; 1023; 1024 ] ] in
  map
    (fun ((graph, algorithm, met), (la, lb, sa, sb), (da, db, time, cost)) ->
      {
        Record.graph;
        algorithm;
        label_a = la;
        label_b = lb;
        start_a = sa;
        start_b = sb;
        delay_a = da;
        delay_b = db;
        met;
        time;
        cost;
      })
    (triple (triple str str bool) (quad int int int int) (quad int int int int))

let record_arb =
  QCheck.make record_gen ~print:(fun r -> Oracle.to_json r ^ "\n" ^ Oracle.to_csv r)

let prop_writers_match_templates =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"to_json and to_csv equal the Printf templates"
       record_arb (fun r ->
         String.equal (Record.to_json r) (Oracle.to_json r)
         && String.equal (Record.to_csv r) (Oracle.to_csv r)))

(* ------------------------------------------------------------------ Sink *)

let test_sinks () =
  let m = Sink.memory () in
  Sink.emit m sample_record;
  Sink.emit m { sample_record with time = 1 };
  Alcotest.(check int) "memory count" 2 (Sink.count m);
  Alcotest.(check (list int)) "memory order" [ 812; 1 ]
    (List.map (fun r -> r.Record.time) (Sink.records m));
  let null = Sink.null () in
  Sink.emit null sample_record;
  Alcotest.(check int) "null counts" 1 (Sink.count null);
  let path = Filename.temp_file "rv_engine" ".jsonl" in
  let sink = Sink.file `Jsonl path in
  Sink.emit sink sample_record;
  Sink.close sink;
  Sink.close sink;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  (match Record.of_json line with
  | Ok r -> Alcotest.(check bool) "file roundtrip" true (r = sample_record)
  | Error e -> Alcotest.fail ("file roundtrip: " ^ e));
  Alcotest.check_raises "emit after close" (Invalid_argument "Sink.emit: sink is closed")
    (fun () -> Sink.emit sink sample_record)

(* File sinks write atomically: bytes land in a temp file and only the
   [close] renames them into place, so an in-progress (or crashed) sweep
   never clobbers the previous output at [path]. *)
let test_sink_atomic_rename () =
  let path = Filename.temp_file "rv_engine_atomic" ".jsonl" in
  let oc = open_out path in
  output_string oc "previous contents\n";
  close_out oc;
  let sink = Sink.file `Jsonl path in
  Sink.emit sink sample_record;
  (* Before close: the destination still holds the previous output and
     the bytes sit in a .tmp sibling. *)
  let ic = open_in path in
  let before = input_line ic in
  close_in ic;
  Alcotest.(check string) "path untouched before close" "previous contents" before;
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  Alcotest.(check bool) "tmp file exists before close" true (Sys.file_exists tmp);
  Sink.close sink;
  Alcotest.(check bool) "tmp file gone after close" false (Sys.file_exists tmp);
  let ic = open_in path in
  let after = input_line ic in
  close_in ic;
  Sys.remove path;
  (match Record.of_json after with
  | Ok r -> Alcotest.(check bool) "renamed contents" true (r = sample_record)
  | Error e -> Alcotest.fail ("renamed contents: " ^ e))

let test_sink_fsync () =
  (* The fsync flag must not change the bytes — only their durability. *)
  let path = Filename.temp_file "rv_engine_fsync" ".csv" in
  let sink = Sink.file ~fsync:true `Csv path in
  Sink.emit sink sample_record;
  Sink.close sink;
  let ic = open_in path in
  let header = input_line ic in
  let row = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "csv header" Record.csv_header header;
  Alcotest.(check string) "csv row" (Record.to_csv sample_record) row

(* Once the first record has sized its buffer, a JSONL or CSV sink, and
   a tee of both (as `rv sweep --jsonl F --csv G` builds), renders and
   writes each record without touching the minor heap.  The longest
   record goes first. *)
let test_sink_emit_allocates_nothing () =
  let records =
    Array.of_list
      ({ sample_record with graph = "ring:64,\"x\"\tz"; label_b = min_int; cost = max_int }
      :: List.init 50 (fun k -> { sample_record with start_b = k * 997; time = 5000 + k }))
  in
  List.iter
    (fun (name, make) ->
      let oc = open_out_bin "/dev/null" in
      let sink = make oc in
      Sink.emit sink records.(0);
      let before = Gc.minor_words () in
      for _ = 1 to 20 do
        for k = 0 to Array.length records - 1 do
          Sink.emit sink records.(k)
        done
      done;
      let words = Gc.minor_words () -. before in
      Sink.close sink;
      close_out oc;
      Alcotest.(check (float 0.)) (name ^ ": minor words after the first record") 0. words)
    [
      ("jsonl", Sink.jsonl);
      ("csv", Sink.csv);
      ("tee", fun oc -> Sink.tee [ Sink.jsonl oc; Sink.csv oc ]);
    ]

(* ---------------------------------------------------------------- golden *)

(* The bytes the JSONL and CSV sinks write, pinned: a small sweep streamed
   through a tee of both, then hand-built records whose strings hold every
   byte class the escapers treat specially and whose ints reach both ends
   of [int]. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* What a tee of a JSONL and a CSV sink wrote while [f] emitted to it. *)
let through_tee f =
  let jpath = Filename.temp_file "rv_golden" ".jsonl" in
  let cpath = Filename.temp_file "rv_golden" ".csv" in
  let joc = open_out_bin jpath and coc = open_out_bin cpath in
  let sink = Sink.tee [ Sink.jsonl joc; Sink.csv coc ] in
  f sink;
  Sink.close sink;
  close_out joc;
  close_out coc;
  let j = read_file jpath and c = read_file cpath in
  Sys.remove jpath;
  Sys.remove cpath;
  (j, c)

let odd_records =
  [
    { sample_record with graph = "quote\" back\\slash"; met = false; time = 0; cost = 0 };
    {
      Record.graph = "tab\tctl\001us\031del\127comma,newline\ncr\rend";
      algorithm = "fwr:2,\"w\"";
      label_a = -1;
      label_b = min_int;
      start_a = max_int;
      start_b = -1024;
      delay_a = 1023;
      delay_b = 1024;
      met = false;
      time = min_int;
      cost = max_int;
    };
    { sample_record with graph = ""; algorithm = "caf\xc3\xa9"; label_a = 0; time = -999_999 };
  ]

let render_records_golden () =
  let g = Rv_graph.Ring.oriented 8 in
  let sweep_j, sweep_c =
    through_tee (fun sink ->
        match
          W.worst_for ~sink ~graph_spec:"ring:8" ~g ~algorithm:R.Fast ~space:8
            ~explorer:(fun ~start -> ignore start; Rv_explore.Ring_walk.clockwise ~n:8)
            ~pairs:[ (1, 8); (3, 5) ] ~positions:`All_pairs ~delays:[ (0, 0); (0, 3) ] ()
        with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e)
  in
  let odd_j, odd_c = through_tee (fun sink -> List.iter (Sink.emit sink) odd_records) in
  String.concat ""
    [
      "# ring:8, L=8, fast, pairs (1,8) (3,5), all start pairs, delays (0,0) (0,3): JSONL\n";
      sweep_j;
      "# the same sweep: CSV\n";
      sweep_c;
      "# hand-built records: JSONL\n";
      odd_j;
      "# hand-built records: CSV\n";
      odd_c;
    ]

(* RV_UPDATE_GOLDEN=1 rewrites the file first. *)
let test_records_golden () =
  let rendered = render_records_golden () in
  let path = Test_data.path "golden/records.golden" in
  if Sys.getenv_opt "RV_UPDATE_GOLDEN" = Some "1" then
    Out_channel.with_open_bin path (fun oc -> output_string oc rendered);
  Alcotest.(check string) "sink bytes are pinned" (read_file path) rendered

(* ---------------------------------------- parallel worst_for == sequential *)

(* Three graph families x two algorithms; E differs per family (oriented
   walk, marked-map DFS, Euler circuit), so the schedules exercised are
   genuinely different shapes. *)
let families () =
  let ring_n = 12 in
  let grid = Rv_graph.Grid.make ~rows:3 ~cols:4 in
  let torus = Rv_graph.Torus.make ~rows:3 ~cols:4 in
  [
    ( "ring:12",
      Rv_graph.Ring.oriented ring_n,
      fun ~start -> ignore start; Rv_explore.Ring_walk.clockwise ~n:ring_n );
    ("grid:3x4", grid, fun ~start -> Rv_explore.Map_dfs.returning grid ~start);
    ("torus:3x4", torus, fun ~start -> Rv_explore.Euler_walk.closed torus ~start);
  ]

let run_family ?pool ?sink (spec, g, explorer) algorithm =
  W.worst_for ?pool ?sink ~graph_spec:spec ~g ~algorithm ~space:8 ~explorer
    ~pairs:[ (2, 7); (3, 5); (1, 6) ]
    ~positions:(`Pairs [ (0, 5); (3, 11); (7, 2) ])
    ~delays:[ (0, 0); (0, 3) ] ()

let test_parallel_equals_sequential () =
  Pool.with_pool ~jobs:3 (fun pool ->
      List.iter
        (fun family ->
          List.iter
            (fun algorithm ->
              let (spec, _, _) = family in
              let seq = run_family family algorithm in
              let par = run_family ~pool family algorithm in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s parallel == sequential" spec (R.name algorithm))
                true (seq = par);
              match seq with
              | Ok _ -> ()
              | Error e -> Alcotest.fail (spec ^ ": " ^ e))
            [ R.Fast; R.Cheap ])
        (families ()))

let test_parallel_sink_stream_identical () =
  let family = List.hd (families ()) in
  let seq_sink = Sink.memory () in
  let _ = run_family ~sink:seq_sink family R.Fast in
  Pool.with_pool ~jobs:4 (fun pool ->
      let par_sink = Sink.memory () in
      let _ = run_family ~pool ~sink:par_sink family R.Fast in
      Alcotest.(check int) "record counts" (Sink.count seq_sink) (Sink.count par_sink);
      Alcotest.(check bool) "record streams identical" true
        (Sink.records seq_sink = Sink.records par_sink);
      Alcotest.(check bool) "records serialized identically" true
        (List.map Record.to_json (Sink.records seq_sink)
        = List.map Record.to_json (Sink.records par_sink)))

(* ----------------------------------------------------------- sample_pairs *)

let test_sample_pairs_large_space () =
  (* Would previously materialize ~2M pairs just to count them; now this
     must be instant and still deterministic. *)
  let space = 2048 in
  let pairs = W.sample_pairs ~space ~max_pairs:64 in
  Alcotest.(check int) "capped" 64 (List.length pairs);
  Alcotest.(check bool) "valid ordered pairs" true
    (List.for_all (fun (a, b) -> 1 <= a && a < b && b <= space) pairs);
  Alcotest.(check int) "distinct" 64
    (List.length (List.sort_uniq (Rv_util.Ord.pair Int.compare Int.compare) pairs));
  Alcotest.(check bool) "deterministic" true
    (pairs = W.sample_pairs ~space ~max_pairs:64)

let () =
  Alcotest.run "rv_engine"
    [
      ( "pool",
        [
          tc "shutdown with no tasks" test_pool_shutdown_no_tasks;
          tc "more tasks than domains" test_pool_more_tasks_than_domains;
          tc "reused across submissions" test_pool_reused_across_submissions;
          tc "jobs=1 runs inline in order" test_pool_sequential_fallback;
          tc "task exception propagates" test_pool_propagates_exception;
        ] );
      ( "sweep",
        [
          tc "map_nested matches sequential" test_map_nested_matches_sequential;
        ] );
      ( "progress",
        [
          tc "counters" test_progress_counters;
          tc "throughput and eta" test_progress_throughput_eta;
        ] );
      ( "record",
        [
          tc "jsonl roundtrip" test_jsonl_roundtrip;
          tc "csv" test_csv;
          prop_writers_match_templates;
        ] );
      ( "sink",
        [
          tc "memory/null/file sinks" test_sinks;
          tc "file sinks rename atomically on close" test_sink_atomic_rename;
          tc "fsync-on-close leaves bytes unchanged" test_sink_fsync;
          tc "emit allocates nothing after the first record" test_sink_emit_allocates_nothing;
        ] );
      ("golden", [ tc "JSONL and CSV sink bytes" test_records_golden ]);
      ( "worst_for",
        [
          tc "parallel == sequential (3 families x 2 algorithms)"
            test_parallel_equals_sequential;
          tc "sink stream identical under parallelism"
            test_parallel_sink_stream_identical;
        ] );
      ( "workload",
        [ tc "sample_pairs scales to large label spaces" test_sample_pairs_large_space ] );
    ]

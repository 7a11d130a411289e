(* Tests for rv_obs: the JSON helper's round-trips, span begin/end
   balance (including deliberate imbalance and unfinished spans),
   histogram bucket boundaries, counter atomicity under the engine's
   domain pool, the Chrome and JSONL exporters' wire formats, the
   disabled-mode no-op guarantee, and the simulator's deep-mode
   integration (agent lanes, phase spans, the round clock). *)

module Obs = Rv_obs.Obs
module Json = Rv_obs.Json
module Counter = Rv_obs.Counter
module Histogram = Rv_obs.Histogram

let tc name f = Alcotest.test_case name `Quick f

(* Every test starts from a clean, enabled collector and leaves the
   global switches off for whoever runs next. *)
let with_obs ?(deep = false) f () =
  Obs.set_enabled true;
  Obs.set_deep deep;
  Obs.reset ();
  Counter.reset ();
  Histogram.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_deep false;
      Obs.set_enabled false;
      Obs.reset ();
      Counter.reset ();
      Histogram.reset ())
    f

(* ------------------------------------------------------------------ Json *)

let test_json_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 1.5;
      Json.Str "plain";
      Json.Str "esc \" \\ \n \t \x01";
      Json.List [ Json.Int 1; Json.Str "two"; Json.Null ];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("xs", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      match Json.parse s with
      | Ok v' -> Alcotest.(check string) ("roundtrip " ^ s) s (Json.to_string v')
      | Error e -> Alcotest.fail (s ^ ": " ^ e))
    cases;
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.fail ("accepted malformed: " ^ bad)
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "nul"; "1 2" ]

(* [Json.add_int] is [string_of_int] without the string: the small-int
   table, the digit writer on both signs, and [min_int], which has no
   positive counterpart. *)
let add_int_string i =
  let b = Buffer.create 24 in
  Json.add_int b i;
  Buffer.contents b

let int_edges =
  let powers = List.init 18 (fun k -> int_of_float (10. ** float_of_int (k + 1))) in
  [ min_int; min_int + 1; max_int; max_int - 1; 0; 1; -1; 9; 10; 1023; 1024; -1023; -1024 ]
  @ List.concat_map (fun p -> [ p - 1; p; p + 1; -p + 1; -p; -p - 1 ]) powers

let test_add_int_edges () =
  List.iter
    (fun i -> Alcotest.(check string) (string_of_int i) (string_of_int i) (add_int_string i))
    int_edges

let prop_add_int =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"add_int equals string_of_int"
       (QCheck.make ~print:string_of_int
          QCheck.Gen.(oneof [ int; small_signed_int; int_range (-5000) 5000; oneofl int_edges ]))
       (fun i -> String.equal (add_int_string i) (string_of_int i)))

(* Once the buffer is big enough, writing an int touches no heap. *)
let test_add_int_allocates_nothing () =
  let b = Buffer.create 64 in
  let ints = Array.of_list (int_edges @ List.init 2000 (fun k -> (k * 7919) - 5000)) in
  let before = Gc.minor_words () in
  for k = 0 to Array.length ints - 1 do
    Buffer.clear b;
    Json.add_int b ints.(k)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words" 0. words

(* ----------------------------------------------------------------- spans *)


(* The parser [Json.parse] replaced, kept verbatim as the oracle: the
   cursor parser must return the same tree, or the same error message
   with the same position, on every input. *)
module Oracle_json = struct
  open Json

  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at position %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if peek () = Some c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else fail ("bad literal, expected " ^ lit)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        incr pos;
        match c with
        | '"' -> Buffer.contents b
        | '\\' ->
            if !pos >= n then fail "unterminated escape";
            let e = s.[!pos] in
            incr pos;
            (match e with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex) with _ -> fail ("bad \\u escape " ^ hex)
                in
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else fail "non-ASCII \\u escapes are not supported"
            | c -> fail (Printf.sprintf "unknown escape \\%c" c));
            go ()
        | c ->
            Buffer.add_char b c;
            go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      if peek () = Some '-' then incr pos;
      let digits () =
        let d0 = !pos in
        while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
          incr pos
        done;
        if !pos = d0 then fail "expected digits"
      in
      digits ();
      let fractional = peek () = Some '.' in
      if fractional then begin
        incr pos;
        digits ()
      end;
      let exponent = match peek () with Some ('e' | 'E') -> true | _ -> false in
      if exponent then begin
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
      end;
      let text = String.sub s start (!pos - start) in
      if fractional || exponent then Float (float_of_string text)
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> Float (float_of_string text)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            List []
          end
          else begin
            let rec items acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  items (v :: acc)
              | Some ']' ->
                  incr pos;
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            List (items [])
          end
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (members [])
          end
      | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
      | None -> fail "unexpected end of input"
    in
    try
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage after document";
      Ok v
    with Bad msg -> Error msg
end

let gen_json_string =
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:printable (int_bound 12);
        string_size ~gen:char (int_bound 8);
        oneofl [ ""; "\""; "\\"; "a\"b\\c"; "\n\r\t"; "\001\031\127"; "\xc3\xa9" ];
      ])

let gen_tree =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map
                   (fun i -> Json.Int i)
                   (oneof [ int; small_signed_int; oneofl [ min_int; max_int; 0; -1 ] ]);
                 map
                   (fun f -> Json.Float f)
                   (oneof [ float; oneofl [ 0.5; -1e-7; 1e300; 123456789.125 ] ]);
                 map (fun s -> Json.Str s) gen_json_string;
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 (1, map (fun xs -> Json.List xs) (list_size (int_bound 4) (self (n / 4))));
                 ( 1,
                   map
                     (fun kvs -> Json.Obj kvs)
                     (list_size (int_bound 4) (pair gen_json_string (self (n / 4)))) );
               ]))

(* Well-formed [rv serve] request lines: every request type, its
   required fields, a random subset of its optional ones, in random
   order. *)
let gen_request_line =
  let open QCheck.Gen in
  let str name g = map (Printf.sprintf "\"%s\":\"%s\"" name) g in
  let int name =
    map (Printf.sprintf "\"%s\":%d" name)
      (oneof [ int_range 0 64; int_range (-2) 100_000; oneofl [ 4_096; 65_536; 1_000_000 ] ])
  in
  let graph =
    str "graph" (oneofl [ "ring:8"; "ring:64"; "torus:4x4"; "grid:3x5"; "hypercube:4"; "petersen" ])
  in
  let algorithm = str "algorithm" (oneofl [ "cheap"; "fast"; "fwr:2"; "fast-sim" ]) in
  let common = [ int "id"; int "deadline_ms"; map (Printf.sprintf "\"debug\":%b") bool ] in
  let line typ required optional =
    let* req = flatten_l required in
    let* opt = flatten_l (List.map opt (common @ optional)) in
    let+ fields =
      shuffle_l ((Printf.sprintf "\"type\":\"%s\"" typ :: req) @ List.filter_map Fun.id opt)
    in
    "{" ^ String.concat "," fields ^ "}"
  in
  oneof
    [
      line "worst" [ graph; algorithm ]
        [ str "explorer" (oneofl [ "auto"; "ring" ]); int "space"; int "pairs"; int "max_delay" ];
      line "run"
        [ graph; algorithm; int "label_a"; int "label_b" ]
        [
          int "space"; int "start_a"; int "start_b"; int "delay_a"; int "delay_b";
          str "model" (oneofl [ "waiting"; "parachute"; "teleport" ]);
        ];
      line "health" [] [];
      line "version" [] [];
      line "metrics" [] [ str "format" (oneofl [ "json"; "prometheus" ]) ];
      line "obs" [] [ int "last" ];
    ]

let insert s i piece = String.sub s 0 i ^ piece ^ String.sub s i (String.length s - i)

let positions_of ch s =
  List.filter (fun i -> Char.equal s.[i] ch) (List.init (String.length s) Fun.id)

(* One edit of a line: a byte flip, a truncation, an escape inside a
   string, a CR or whitespace, a duplicate or unknown field, or a value
   of the wrong type or out of range. *)
let gen_mutation s =
  let open QCheck.Gen in
  let n = String.length s in
  let* at = int_bound n in
  let after_one_of ch k =
    match positions_of ch s with
    | [] -> return s
    | ps ->
        let+ p = oneofl ps in
        k p
  in
  oneof
    [
      (let+ c = char in
       if n = 0 then String.make 1 c else String.mapi (fun i x -> if i = at mod n then c else x) s);
      return (String.sub s 0 at);
      (let* e =
         oneofl
           [
             "\\\""; "\\\\"; "\\/"; "\\u0041"; "\\u001f"; "\\u007F"; "\\u00e9";
             "\\u20AC"; "\\u12"; "\\uzz00"; "\\u00_4"; "\\x"; "\\"; "\\b\\f";
           ]
       in
       after_one_of '"' (fun p -> insert s (p + 1) e));
      (let+ w = oneofl [ "\r"; " "; "\t"; "\n"; "\r\n"; "\012" ] in
       insert s at w);
      (let* f =
         oneofl [ ",\"graph\":\"ring:9\""; ",\"surprise\":1"; ",\"id\":2"; ",\"type\":\"run\"" ]
       in
       after_one_of '}' (fun p -> insert s p f));
      (let* v =
         oneofl
           [
             "\"7\""; "true"; "null"; "[1]"; "{}"; "1.5"; "-0"; "007"; "-"; "1e"; "1.e5";
             "2E+3"; "1e400"; "99999999999999999999"; "4611686018427387903";
             "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905";
             "123456789012345678"; "-1234567890123456789";
           ]
       in
       after_one_of ':' (fun p ->
           let stop =
             let rec go i =
               if i >= n || s.[i] = ',' || s.[i] = '}' then i else go (i + 1)
             in
             go (p + 1)
           in
           String.sub s 0 (p + 1) ^ v ^ String.sub s stop (n - stop)));
    ]

let gen_parser_input =
  let open QCheck.Gen in
  let base = oneof [ map Json.to_string gen_tree; gen_request_line ] in
  let rec mutate k s = if k = 0 then return s else gen_mutation s >>= mutate (k - 1) in
  frequency
    [
      (2, map Json.to_string gen_tree);
      (2, gen_request_line);
      ( 5,
        let* s = base in
        let* k = int_range 1 3 in
        mutate k s );
      ( 1,
        oneofl
          [
            ""; " "; "-"; "-0"; "007"; "1.5e"; "tru"; "nul"; "[1,]"; "{\"a\"1}"; "\"\\";
            "\"abc"; "[]"; "{ }"; "[ ]"; "\"\\u0080\""; "\"\\uFFFF\""; "\"\\u+7f0\"";
            "\"\\u-001\""; "\"\\u0x12\""; "1 2"; "{\"a\":}"; "\"\\u00";
          ] );
    ]

let prop_parse_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:6000 ~name:"parse agrees with the previous parser"
       (QCheck.make ~print:(Printf.sprintf "%S") gen_parser_input)
       (fun s -> compare (Json.parse s) (Oracle_json.parse s) = 0))

let test_span_nesting =
  with_obs (fun () ->
      Obs.span ~cat:"t" "outer" (fun () ->
          Obs.span ~cat:"t" "inner" (fun () -> ignore (Sys.opaque_identity 1)));
      let evs = Obs.events () in
      Alcotest.(check int) "two spans" 2 (List.length evs);
      let by_name n = List.find (fun (e : Obs.event) -> e.Obs.name = n) evs in
      let outer = by_name "outer" and inner = by_name "inner" in
      let dur (e : Obs.event) =
        match e.Obs.kind with Obs.Span { dur_us; _ } -> dur_us | Obs.Instant -> -1.
      in
      Alcotest.(check bool) "inner begins after outer" true
        (inner.Obs.ts_us >= outer.Obs.ts_us);
      Alcotest.(check bool) "inner ends before outer" true
        (inner.Obs.ts_us +. dur inner <= outer.Obs.ts_us +. dur outer +. 0.001);
      Alcotest.(check int) "balanced" 0 (Obs.unbalanced_ends ()))

(* rv_lint: allow R5 -- this test deliberately produces stray end_spans
   to check Obs counts them *)
let test_span_unbalanced_end =
  with_obs (fun () ->
      Obs.end_span ();
      Obs.begin_span "only";
      Obs.end_span ();
      Obs.end_span ();
      Alcotest.(check int) "stray ends counted" 2 (Obs.unbalanced_ends ());
      Alcotest.(check int) "real span still recorded" 1 (List.length (Obs.events ())))

(* rv_lint: allow R5 -- this test deliberately leaves a span open to
   check events() finalizes and marks it unfinished *)
let test_span_unfinished =
  with_obs (fun () ->
      Obs.begin_span ~cat:"t" "left-open";
      let evs = Obs.events () in
      Alcotest.(check int) "finalized on read" 1 (List.length evs);
      let e = List.hd evs in
      Alcotest.(check bool) "marked unfinished" true
        (List.mem_assoc "unfinished" e.Obs.args))

let test_span_raise_still_ends =
  with_obs (fun () ->
      (try Obs.span "raises" (fun () -> failwith "boom") with Failure _ -> ());
      Alcotest.(check int) "span closed by the bracket" 1 (List.length (Obs.events ()));
      Alcotest.(check int) "no stray end" 0 (Obs.unbalanced_ends ()))

(* ------------------------------------------------------------- histogram *)

let test_histogram_buckets =
  with_obs (fun () ->
      List.iter (Histogram.observe "h") [ -5; 0; 1; 2; 3; 4; 7; 8; 1023; 1024 ];
      let h = Histogram.find "h" in
      Alcotest.(check int) "count" 10 (Histogram.count h);
      Alcotest.(check int) "max" 1024 (Histogram.max_value h);
      Alcotest.(check (list (triple int int int)))
        "bucket boundaries"
        [
          (min_int, 0, 2) (* -5, 0 *);
          (1, 1, 1);
          (2, 3, 2);
          (4, 7, 2);
          (8, 15, 1);
          (512, 1023, 1);
          (1024, 2047, 1);
        ]
        (Histogram.buckets h);
      Alcotest.(check (pair int int)) "bounds of bucket 1" (1, 1)
        (Histogram.bucket_bounds 1);
      Alcotest.(check (pair int int)) "bounds of bucket 5" (16, 31)
        (Histogram.bucket_bounds 5))

(* --------------------------------------------------------------- counter *)

let test_counter_atomic_under_pool =
  with_obs (fun () ->
      Rv_engine.Pool.with_pool ~jobs:4 (fun pool ->
          Rv_engine.Pool.run pool ~total:400 (fun i -> Counter.count "hits" (1 + (i mod 3))));
      (* sum over i in 0..399 of (1 + i mod 3): 400 + 133*1 + 133*2 = 799 *)
      let expected = List.init 400 (fun i -> 1 + (i mod 3)) |> List.fold_left ( + ) 0 in
      Alcotest.(check int) "no lost increments" expected
        (Counter.value (Counter.find "hits")))

(* ------------------------------------------------------------- exporters *)

let test_chrome_roundtrip =
  with_obs (fun () ->
      Obs.span ~cat:"sim" ~args:[ ("k", Json.Int 7) ] "s1" (fun () ->
          Obs.instant ~cat:"sim" "hit");
      let json = Rv_obs.Export_chrome.to_json () in
      (* Through the wire and back. *)
      let parsed =
        match Json.parse (Json.to_string json) with
        | Ok v -> v
        | Error e -> Alcotest.fail ("chrome json: " ^ e)
      in
      let events =
        match Option.bind (Json.member "traceEvents" parsed) Json.to_list with
        | Some l -> l
        | None -> Alcotest.fail "no traceEvents array"
      in
      Alcotest.(check bool) "has events" true (List.length events > 0);
      List.iter
        (fun ev ->
          List.iter
            (fun field ->
              if Json.member field ev = None then
                Alcotest.fail
                  (Printf.sprintf "event missing %s: %s" field (Json.to_string ev)))
            [ "ph"; "ts"; "pid"; "tid"; "name" ])
        events;
      let with_ph p =
        List.filter
          (fun ev -> Option.bind (Json.member "ph" ev) Json.to_str = Some p)
          events
      in
      Alcotest.(check int) "one complete span" 1 (List.length (with_ph "X"));
      Alcotest.(check int) "one instant" 1 (List.length (with_ph "i"));
      Alcotest.(check bool) "metadata names lanes" true (List.length (with_ph "M") >= 2);
      let x = List.hd (with_ph "X") in
      Alcotest.(check bool) "span has dur" true (Json.member "dur" x <> None);
      Alcotest.(check (option string)) "span cat" (Some "sim")
        (Option.bind (Json.member "cat" x) Json.to_str))

let test_jsonl_roundtrip =
  with_obs (fun () ->
      Obs.span ~cat:"c" "sp" (fun () -> ());
      Counter.count "n" 3;
      Histogram.observe "h" 5;
      let lines = Rv_obs.Export_jsonl.lines () in
      Alcotest.(check int) "span + counter + histogram" 3 (List.length lines);
      let typed =
        List.map
          (fun line ->
            match Json.parse line with
            | Error e -> Alcotest.fail (line ^ ": " ^ e)
            | Ok v -> (
                match Option.bind (Json.member "type" v) Json.to_str with
                | Some t -> (t, v)
                | None -> Alcotest.fail ("line without type: " ^ line)))
          lines
      in
      Alcotest.(check (list string)) "line shapes" [ "span"; "counter"; "histogram" ]
        (List.map fst typed);
      let counter = List.assoc "counter" typed in
      Alcotest.(check (option int)) "counter value" (Some 3)
        (Option.bind (Json.member "value" counter) Json.to_int);
      let histogram = List.assoc "histogram" typed in
      Alcotest.(check (option int)) "histogram sum" (Some 5)
        (Option.bind (Json.member "sum" histogram) Json.to_int))

(* -------------------------------------------------------------- disabled *)

let test_disabled_noop () =
  Obs.set_enabled false;
  Obs.reset ();
  Counter.reset ();
  Histogram.reset ();
  Obs.begin_span "ghost";
  Obs.end_span ();
  Obs.span "ghost2" (fun () -> ());
  Obs.instant "ghost3";
  Counter.count "ghost" 5;
  Histogram.observe "ghost" 5;
  Alcotest.(check int) "no events" 0 (Obs.event_count ());
  Alcotest.(check int) "no stray ends" 0 (Obs.unbalanced_ends ());
  Alcotest.(check (list (pair string int))) "no counters" [] (Counter.all ());
  Alcotest.(check int) "no histograms" 0 (List.length (Histogram.all ()));
  (* span must still run its body and return its value when disabled *)
  Alcotest.(check int) "span is transparent" 41 (Obs.span "id" (fun () -> 41))

(* ------------------------------------------------- simulator integration *)

let test_sim_deep_mode =
  with_obs ~deep:true (fun () ->
      let n = 8 in
      let g = Rv_graph.Ring.oriented n in
      let explorer ~start:_ = Rv_explore.Ring_walk.clockwise ~n in
      let out =
        Rv_core.Rendezvous.run ~record:true ~g ~explorer
          ~algorithm:Rv_core.Rendezvous.Fast ~space:16
          { Rv_core.Rendezvous.label = 2; start = 0; delay = 0 }
          { Rv_core.Rendezvous.label = 5; start = n / 2; delay = 0 }
      in
      Alcotest.(check bool) "met" true out.Rv_sim.Sim.met;
      let evs = Obs.events () in
      let cats =
        List.sort_uniq String.compare
          (List.map (fun (e : Obs.event) -> e.Obs.cat) evs)
      in
      Alcotest.(check bool) "sim spans present" true (List.mem "sim" cats);
      Alcotest.(check bool) "explore phase spans present" true (List.mem "explore" cats);
      let lanes =
        List.sort_uniq String.compare
          (List.map (fun (e : Obs.event) -> Obs.lane_name e.Obs.tid) evs)
      in
      Alcotest.(check bool) "agent lanes allocated" true
        (List.mem "agent A" lanes && List.mem "agent B" lanes);
      Alcotest.(check bool) "round clock attached" true
        (List.exists (fun (e : Obs.event) -> e.Obs.round > 0) evs);
      Alcotest.(check bool) "meeting counted" true
        (Counter.value (Counter.find "sim.meetings") = 1))

(* ---------------------------------------------------------------- window *)

module Window = Rv_obs.Window

(* Seeded LCG so the "random" streams are reproducible without Random. *)
let stream ~seed n =
  let s = ref (max 1 seed) in
  List.init n (fun _ ->
      s := !s * 48271 mod 0x7fffffff;
      1 + (!s mod 200_000))

(* The exact value the window must report for percentile [p] over
   [values]: the log2-bucket upper bound of the nearest-rank sample
   (Rv_util.Stats.percentile), clamped to the observed max — 0 when that
   sample lands in bucket 0.  This mirrors the documented contract,
   computed offline from the raw values instead of the ring. *)
let exact_window_percentile values p =
  match List.sort Int.compare values with
  | [] -> 0
  | sorted ->
      let b = Histogram.bucket_of (Rv_util.Stats.percentile (Array.of_list sorted) p) in
      if b = 0 then 0
      else min (snd (Histogram.bucket_bounds b)) (List.fold_left max 0 sorted)

let check_window_stats label (st : Window.stats) values =
  let n = List.length values in
  Alcotest.(check int) (label ^ " count") n st.Window.w_count;
  Alcotest.(check int)
    (label ^ " sum")
    (List.fold_left ( + ) 0 values)
    st.Window.w_sum;
  Alcotest.(check int)
    (label ^ " max")
    (List.fold_left max 0 values)
    st.Window.w_max;
  List.iter
    (fun (tag, p, got) ->
      Alcotest.(check int)
        (Printf.sprintf "%s %s" label tag)
        (exact_window_percentile values p)
        got)
    [
      ("p50", 0.5, st.Window.w_p50);
      ("p90", 0.9, st.Window.w_p90);
      ("p99", 0.99, st.Window.w_p99);
    ]

let test_window_vs_offline () =
  (* Several seeded streams, spread over a few seconds inside the
     horizon: the merged window stats must equal the offline reference
     on every stream. *)
  List.iter
    (fun seed ->
      let w = Window.create () in
      let values = stream ~seed 500 in
      List.iteri
        (fun i v -> Window.observe w ~now_s:(1000 + (i mod 5)) v)
        values;
      check_window_stats
        (Printf.sprintf "seed %d" seed)
        (Window.stats w ~now_s:1004 ~horizon_s:10)
        values)
    [ 1; 7; 42; 12345 ]

let test_window_horizons () =
  let w = Window.create () in
  let old_batch = stream ~seed:3 100 and new_batch = stream ~seed:9 50 in
  List.iter (fun v -> Window.observe w ~now_s:100 v) old_batch;
  List.iter (fun v -> Window.observe w ~now_s:105 v) new_batch;
  (* A wide horizon sees both batches, a narrow one only the newer. *)
  check_window_stats "both batches"
    (Window.stats w ~now_s:105 ~horizon_s:10)
    (old_batch @ new_batch);
  check_window_stats "narrow horizon"
    (Window.stats w ~now_s:105 ~horizon_s:3)
    new_batch;
  (* The window covers the half-open interval (now - horizon, now]: at
     now = 114 the batch from second 100 has aged out but second 105 is
     still the oldest covered second; one second later it is gone too. *)
  check_window_stats "old batch aged out"
    (Window.stats w ~now_s:114 ~horizon_s:10)
    new_batch;
  check_window_stats "everything aged out"
    (Window.stats w ~now_s:115 ~horizon_s:10)
    [];
  (* A slot whose second is *ahead* of now_s (clock skew) is excluded. *)
  check_window_stats "future slot excluded"
    (Window.stats w ~now_s:100 ~horizon_s:10)
    old_batch

let test_window_empty () =
  let w = Window.create () in
  Alcotest.(check bool) "empty stats" true
    (Window.stats w ~now_s:50 ~horizon_s:60 = Window.empty_stats);
  Window.observe w ~now_s:50 7;
  Alcotest.(check bool) "drained after horizon" true
    (Window.stats w ~now_s:5000 ~horizon_s:60 = Window.empty_stats)

let test_window_wrap () =
  (* Reusing a slot a full ring-rotation later must clear the old
     second's samples rather than merge them. *)
  let w = Window.create ~slots:330 () in
  List.iter (fun v -> Window.observe w ~now_s:10 v) (stream ~seed:5 40);
  let fresh = stream ~seed:11 30 in
  List.iter (fun v -> Window.observe w ~now_s:(10 + 330) v) fresh;
  check_window_stats "after wrap"
    (Window.stats w ~now_s:(10 + 330) ~horizon_s:300)
    fresh

let test_window_stats_many () =
  (* Splitting a stream across windows and merging with stats_many must
     equal observing everything in one window. *)
  let parts = [ Window.create (); Window.create (); Window.create () ] in
  let whole = Window.create () in
  let values = stream ~seed:77 300 in
  List.iteri
    (fun i v ->
      Window.observe (List.nth parts (i mod 3)) ~now_s:200 v;
      Window.observe whole ~now_s:200 v)
    values;
  let merged = Window.stats_many parts ~now_s:200 ~horizon_s:60 in
  check_window_stats "merged" merged values;
  Alcotest.(check bool) "merged = single" true
    (merged = Window.stats whole ~now_s:200 ~horizon_s:60);
  Alcotest.(check bool) "stats_many [] is empty" true
    (Window.stats_many [] ~now_s:200 ~horizon_s:60 = Window.empty_stats)

let () =
  Alcotest.run "rv_obs"
    [
      ( "json",
        [
          tc "to_string/parse roundtrip" test_json_roundtrip;
          tc "add_int at the edges" test_add_int_edges;
          prop_add_int;
          tc "add_int allocates nothing" test_add_int_allocates_nothing;
          prop_parse_matches_oracle;
        ] );
      ( "spans",
        [
          tc "nesting and balance" test_span_nesting;
          tc "unbalanced ends counted" test_span_unbalanced_end;
          tc "open span finalized as unfinished" test_span_unfinished;
          tc "span closes on raise" test_span_raise_still_ends;
        ] );
      ("histogram", [ tc "log2 bucket boundaries" test_histogram_buckets ]);
      ("counter", [ tc "atomic under the domain pool" test_counter_atomic_under_pool ]);
      ( "exporters",
        [
          tc "chrome trace-event roundtrip" test_chrome_roundtrip;
          tc "jsonl stream roundtrip" test_jsonl_roundtrip;
        ] );
      ("disabled", [ tc "everything is a no-op" test_disabled_noop ]);
      ("sim", [ tc "deep mode: lanes, phases, round clock" test_sim_deep_mode ]);
      ( "window",
        [
          tc "percentiles match offline reference" test_window_vs_offline;
          tc "horizons and rotation edges" test_window_horizons;
          tc "empty window" test_window_empty;
          tc "ring wrap clears stale slots" test_window_wrap;
          tc "stats_many merges like one window" test_window_stats_many;
        ] );
    ]

(* Tests for rv_lint: one positive and one suppressed-negative fixture per
   rule R1-R5, the suppression grammar (reasoned allows accepted, bare
   allows rejected as [Lint] findings), report formatting/order, the
   typed pass R6-R9 over in-process-typechecked fixtures, baseline/diff
   mode, the hot-path manifest parser, and self-checks asserting the
   shipped tree is clean under the full gate. *)

module Report = Rv_lint.Report
module Config = Rv_lint.Config
module Driver = Rv_lint.Driver
module Typed = Rv_lint.Typed
module Manifest = Rv_lint.Manifest
module Baseline = Rv_lint.Baseline
module Suppress = Rv_lint.Suppress

let tc name f = Alcotest.test_case name `Quick f

let config = Config.default

(* [check ~path src] lints [src] as if it were the file [path]. *)
let check ?(path = "lib/fixture.ml") src = Driver.check_source config ~path src

let rules_of (findings, _suppressed) =
  List.map (fun f -> Report.rule_to_string f.Report.rule) findings

let check_rules = Alcotest.(check (list string))
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------- R1 *)

let r1_positive () =
  let fs = check "let roll () = Random.int 6\nlet now () = Unix.gettimeofday ()\n" in
  check_rules "both nondeterminism sources flagged" [ "R1"; "R1" ] (rules_of fs)

let r1_rng_exempt () =
  let fs, suppressed =
    check ~path:"lib/util/rng.ml" "let roll () = Random.int 6\n"
  in
  check_rules "the rng module may use Random" [] (rules_of (fs, suppressed));
  check_int "nothing suppressed: it never fired" 0 suppressed

let r1_suppressed () =
  let fs, suppressed =
    check
      "(* rv_lint: allow R1 -- progress display only, never feeds results *)\n\
       let now () = Unix.gettimeofday ()\n"
  in
  check_rules "reasoned allow silences R1" [] (rules_of (fs, suppressed));
  check_int "one finding suppressed" 1 suppressed

(* ------------------------------------------------------------------- R2 *)

let r2_positive () =
  let fs =
    check
      "let dump tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []\n"
  in
  check_rules "unsorted Hashtbl.fold flagged" [ "R2" ] (rules_of fs)

let r2_sorted_ok () =
  let fs =
    check
      "let dump tbl =\n\
      \  List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])\n"
  in
  check_rules "a sort in the same definition satisfies R2" [] (rules_of fs)

let r2_suppressed () =
  let fs, suppressed =
    check
      "(* rv_lint: allow R2 -- boolean OR is order-insensitive *)\n\
       let any tbl = Hashtbl.fold (fun _ v acc -> acc || v) tbl false\n"
  in
  check_rules "reasoned allow silences R2" [] (rules_of (fs, suppressed));
  check_int "one finding suppressed" 1 suppressed

(* ------------------------------------------------------------------- R3 *)

let r3_positive () =
  let fs = check "let counter = ref 0\nlet bump () = incr counter\n" in
  check_rules "bare top-level ref flagged" [ "R3" ] (rules_of fs)

let r3_atomic_ok () =
  let fs = check "let counter = Atomic.make 0\n" in
  check_rules "Atomic state passes R3" [] (rules_of fs)

let r3_out_of_scope () =
  let fs = check ~path:"bin/fixture.ml" "let counter = ref 0\n" in
  check_rules "R3 gates only the worker-linked roots" [] (rules_of fs)

let r3_local_ok () =
  let fs = check "let f () = let c = ref 0 in incr c; !c\n" in
  check_rules "function-local refs are fine" [] (rules_of fs)

let r3_nested_module () =
  let fs = check "module M = struct\n  let cache = Hashtbl.create 8\nend\n" in
  check_rules "nested-module toplevels are gated too" [ "R3" ] (rules_of fs)

let r3_suppressed () =
  let fs, suppressed =
    check
      "(* rv_lint: allow R3 -- every access goes through a mutex *)\n\
       let counter = ref 0\n"
  in
  check_rules "reasoned allow silences R3" [] (rules_of (fs, suppressed));
  check_int "one finding suppressed" 1 suppressed

(* ------------------------------------------------------------------- R4 *)

let r4_positive () =
  let fs = check "let sorted xs = List.sort compare xs\n" in
  check_rules "bare polymorphic comparator flagged" [ "R4" ] (rules_of fs)

let r4_float_eq () =
  let fs = check "let zero x = x = 0.0\n" in
  check_rules "float equality via = flagged" [ "R4" ] (rules_of fs)

let r4_typed_ok () =
  let fs =
    check "let sorted xs = List.sort Int.compare xs\nlet zero x = Float.equal x 0.0\n"
  in
  check_rules "typed comparators pass R4" [] (rules_of fs)

let r4_suppressed () =
  let fs, suppressed =
    check
      "(* rv_lint: allow R4 -- keys are ints by construction *)\n\
       let sorted xs = List.sort compare xs\n"
  in
  check_rules "reasoned allow silences R4" [] (rules_of (fs, suppressed));
  check_int "one finding suppressed" 1 suppressed

(* ------------------------------------------------------------------- R5 *)

let r5_positive () =
  let fs = check "let f () = Obs.begin_span \"phase\"; work ()\n" in
  check_rules "begin without end flagged" [ "R5" ] (rules_of fs)

let r5_balanced_ok () =
  let fs =
    check
      "let f () =\n\
      \  Obs.begin_span \"phase\";\n\
      \  Fun.protect ~finally:Obs.end_span work\n"
  in
  check_rules "lexically paired spans pass" [] (rules_of fs)

(* Fixtures mirroring the rv_serve instrumentation: the closure-style
   [Obs.span] the serve path uses is inherently balanced, while a
   hand-rolled serve.* begin without its end must still be flagged. *)
let r5_serve_span_closure_ok () =
  let fs =
    check
      "let eval q = Obs.span ~cat:\"serve\" \"serve.compute\" (fun () -> run q)\n\
       let admit j = Obs.span ~cat:\"serve\" \"serve.admit\" (fun () -> push j)\n"
  in
  check_rules "closure-style serve.* spans pass" [] (rules_of fs)

let r5_serve_unpaired_flagged () =
  let fs =
    check
      "let handle c =\n\
      \  Obs.begin_span \"serve.request\";\n\
      \  reply c\n"
  in
  check_rules "unpaired serve.request span flagged" [ "R5" ] (rules_of fs)

let r5_serve_paired_ok () =
  let fs =
    check
      "let handle c =\n\
      \  Obs.begin_span \"serve.request\";\n\
      \  Fun.protect ~finally:Obs.end_span (fun () -> reply c)\n"
  in
  check_rules "paired serve.request span passes" [] (rules_of fs)

let r5_suppressed () =
  let fs, suppressed =
    check
      "(* rv_lint: allow R5 -- the matching end lives in the caller *)\n\
       let f () = Obs.begin_span \"phase\"; work ()\n"
  in
  check_rules "reasoned allow silences R5" [] (rules_of (fs, suppressed));
  check_int "one finding suppressed" 1 suppressed

(* The request-span API (Rspan.stage_begin/stage_end) is held to the
   same lexical-balance discipline as Obs spans, as its own pair: a
   stage_begin never balances an end_span and vice versa. *)

let r5_stage_positive () =
  let fs =
    check "let f sp = Rspan.stage_begin sp \"parse\"; parse ()\n"
  in
  check_rules "stage opened without close flagged" [ "R5" ] (rules_of fs)

let r5_stage_balanced_ok () =
  let fs =
    check
      "let f sp =\n\
      \  Rspan.stage_begin sp \"parse\";\n\
      \  let r = parse () in\n\
      \  Rspan.stage_end sp \"parse\";\n\
      \  r\n"
  in
  check_rules "balanced stage passes" [] (rules_of fs)

let r5_stage_not_span () =
  (* One stage_begin plus one end_span: both pairs are unbalanced and
     each reports — the counters must not cancel across APIs. *)
  let fs =
    check
      "let f sp = Rspan.stage_begin sp \"parse\"; Obs.end_span ()\n"
  in
  check_rules "stage and span pairs counted separately" [ "R5"; "R5" ]
    (rules_of fs)

let r5_stage_suppressed () =
  let fs, suppressed =
    check
      "(* rv_lint: allow R5 -- queue stage closes on the dispatcher *)\n\
       let enqueue sp = Rspan.stage_begin sp \"queue\"; submit sp\n"
  in
  check_rules "reasoned allow silences a crossing stage" []
    (rules_of (fs, suppressed));
  check_int "one stage finding suppressed" 1 suppressed

(* ----------------------------------------------------------- suppression *)

let bare_allow_rejected () =
  let fs =
    check "(* rv_lint: allow R3 *)\nlet counter = ref 0\n"
  in
  check_rules "a bare allow is itself a finding and silences nothing"
    [ "lint"; "R3" ] (rules_of fs)

let unknown_rule_rejected () =
  let fs = check "(* rv_lint: allow R42 -- no such rule *)\nlet x = 1\n" in
  check_rules "unknown rule name rejected" [ "lint" ] (rules_of fs)

let allow_window_is_next_line () =
  let fs, suppressed =
    check
      "(* rv_lint: allow R3 -- guarded elsewhere *)\n\
       let a = ref 0\n\
       let b = ref 0\n"
  in
  check_rules "the directive covers only the next line" [ "R3" ]
    (rules_of (fs, suppressed));
  check_int "first binding suppressed" 1 suppressed

let allow_file_covers_all () =
  let fs, suppressed =
    check
      "(* rv_lint: allow-file R1 -- wall-clock harness by design *)\n\
       let a () = Unix.gettimeofday ()\n\
       let b () = Sys.time ()\n"
  in
  check_rules "allow-file silences the whole unit" [] (rules_of (fs, suppressed));
  check_int "both findings suppressed" 2 suppressed

let parse_error_is_finding () =
  let fs = check "let = in ;;\n" in
  check_rules "unparseable input reports, not raises" [ "lint" ] (rules_of fs)

(* --------------------------------------------------------------- report *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let finding_format () =
  match fst (check "let sorted xs = List.sort compare xs\n") with
  | [ f ] ->
      let s = Report.to_string f in
      Alcotest.(check bool)
        "file:line:col [rule] message" true
        (contains ~sub:"lib/fixture.ml:1:" s && contains ~sub:"[R4]" s)
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let findings_sorted () =
  let src =
    "let b () = Unix.gettimeofday ()\nlet a xs = List.sort compare xs\n"
  in
  let fs = fst (check src) in
  let sorted = List.sort Report.compare_finding fs in
  Alcotest.(check bool) "driver output is already sorted" true (fs = sorted);
  check_rules "line order wins" [ "R1"; "R4" ] (rules_of (fs, 0))

(* ---------------------------------------------------- typed pass R6-R9 *)

(* The typed rules run over Typedtree structures, which the driver reads
   from .cmt artifacts.  For fixtures we typecheck source strings
   in-process instead, so each rule gets precise positive/negative
   cases without a dune build in the loop.  Fixtures stub the modules
   they reference (Mutex, Unix, Thread) locally: the analyzer matches
   normalized path names, and a local [module Unix] resolves to the same
   "Unix.write" the real one does -- no external cmi needed. *)

let fixture_path = "lib/typed_fixture.ml"

let typecheck src =
  (* Fixture warnings (unused values and the like) are noise here. *)
  ignore (Warnings.parse_options false "-a");
  Compmisc.init_path ();
  let env = Compmisc.initial_env () in
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf fixture_path;
  let pstr = Parse.implementation lexbuf in
  let tstr, _, _, _, _ = Typemod.type_structure env pstr in
  { Typed.u_file = fixture_path;
    u_module = Typed.module_of_source fixture_path;
    u_str = tstr }

let typed_check ?(manifest = Manifest.empty) src =
  Typed.analyze ~config ~manifest [ typecheck src ]
  |> List.sort Report.compare_finding

let mutex_stub = "module Mutex = struct let lock _ = () let unlock _ = () end\n"
let unix_stub = "module Unix = struct let write _ = () end\n"
let thread_stub = "module Thread = struct let create f x = ignore (f x); 0 end\n"

(* --- R6: lock-ordering ---- *)

(* Nested acquisition fixtures also trip R7 (a nested [Mutex.lock]
   while held is itself a blocking call, by design); project out the
   ordering findings when the ordering is what's under test. *)
let only rule fs =
  List.filter (fun f -> f.Report.rule = rule) fs

let r6_inconsistent_order () =
  let fs =
    typed_check
      (mutex_stub
      ^ "let a = 0\n\
         let b = 0\n\
         let f () = Mutex.lock a; Mutex.lock b; Mutex.unlock b; Mutex.unlock a\n\
         let g () = Mutex.lock b; Mutex.lock a; Mutex.unlock a; Mutex.unlock b\n")
  in
  check_rules "A-then-B vs B-then-A reported at both sites" [ "R6"; "R6" ]
    (rules_of (only Report.R6 fs, 0))

let r6_consistent_order_ok () =
  let fs =
    typed_check
      (mutex_stub
      ^ "let a = 0\n\
         let b = 0\n\
         let f () = Mutex.lock a; Mutex.lock b; Mutex.unlock b; Mutex.unlock a\n\
         let g () = Mutex.lock a; Mutex.lock b; Mutex.unlock b; Mutex.unlock a\n")
  in
  check_rules "a global A-before-B order passes" []
    (rules_of (only Report.R6 fs, 0))

let r6_nested_lock_is_r7 () =
  (* The consistent-order fixture still reports the nested acquisition
     itself: holding A across [Mutex.lock b] can park the thread. *)
  let fs =
    typed_check
      (mutex_stub
      ^ "let a = 0\n\
         let b = 0\n\
         let f () = Mutex.lock a; Mutex.lock b; Mutex.unlock b; Mutex.unlock a\n")
  in
  check_rules "nested acquisition reported as blocking-under-lock" [ "R7" ]
    (rules_of (fs, 0))

let r6_suppressed () =
  let src =
    mutex_stub
    ^ "let a = 0\n\
       let b = 0\n\
       (* rv_lint: allow R6 -- fixture: init-time only, no concurrent g *)\n\
       let f () = Mutex.lock a; Mutex.lock b; Mutex.unlock b; Mutex.unlock a\n\
       (* rv_lint: allow R6 -- fixture: init-time only, no concurrent f *)\n\
       let g () = Mutex.lock b; Mutex.lock a; Mutex.unlock a; Mutex.unlock b\n"
  in
  let directives, derrs = Suppress.scan ~path:fixture_path src in
  check_int "directives well-formed" 0 (List.length derrs);
  let kept, suppressed = Suppress.apply directives (typed_check src) in
  check_rules "reasoned allows silence R6 (the nested-lock R7s remain)" []
    (rules_of (only Report.R6 kept, 0));
  check_int "both order findings suppressed" 2 suppressed

(* --- R7: blocking under a lock ---- *)

let r7_blocking_under_lock () =
  let fs =
    typed_check
      (mutex_stub ^ unix_stub
      ^ "let m = 0\n\
         let f () = Mutex.lock m; Unix.write 1; Mutex.unlock m\n")
  in
  check_rules "Unix I/O inside the held region flagged" [ "R7" ]
    (rules_of (fs, 0))

let r7_blocking_after_unlock_ok () =
  let fs =
    typed_check
      (mutex_stub ^ unix_stub
      ^ "let m = 0\n\
         let f () = Mutex.lock m; Mutex.unlock m; Unix.write 1\n")
  in
  check_rules "blocking outside the held region passes" [] (rules_of (fs, 0))

let r7_via_callee () =
  (* One level of call resolution: the blocking call hides behind a
     helper defined in the same unit set. *)
  let fs =
    typed_check
      (mutex_stub ^ unix_stub
      ^ "let helper () = Unix.write 1\n\
         let m = 0\n\
         let f () = Mutex.lock m; helper (); Mutex.unlock m\n")
  in
  check_rules "blocking callee resolved one level deep" [ "R7" ]
    (rules_of (fs, 0))

let r7_dispatcher_hot_path () =
  let manifest, errs =
    Manifest.parse ~path:"hot.txt"
      "dispatcher Typed_fixture.loop lib/typed_fixture.ml\n"
  in
  check_int "manifest line parses" 0 (List.length errs);
  let fs =
    typed_check ~manifest (unix_stub ^ "let loop () = Unix.write 1\n")
  in
  check_rules "blocking in a dispatcher hot path flagged without a lock"
    [ "R7" ] (rules_of (fs, 0))

let r7_suppressed () =
  let src =
    mutex_stub ^ unix_stub
    ^ "let m = 0\n\
       let f () =\n\
      \  (* rv_lint: allow R7 -- fixture: the write is bounded by design *)\n\
      \  Mutex.lock m; Unix.write 1; Mutex.unlock m\n"
  in
  let directives, derrs = Suppress.scan ~path:fixture_path src in
  check_int "directive well-formed" 0 (List.length derrs);
  let kept, suppressed = Suppress.apply directives (typed_check src) in
  check_rules "reasoned allow silences R7" [] (rules_of (kept, suppressed));
  check_int "one blocking finding suppressed" 1 suppressed

(* --- R8: hot-loop allocation ---- *)

let hot_manifest () =
  let manifest, errs =
    Manifest.parse ~path:"hot.txt" "hot Typed_fixture.meet lib/typed_fixture.ml\n"
  in
  check_int "manifest line parses" 0 (List.length errs);
  manifest

let r8_closure_in_hot_loop () =
  let fs =
    typed_check ~manifest:(hot_manifest ())
      "let meet n =\n\
      \  let total = ref 0 in\n\
      \  for i = 0 to n do\n\
      \    let f = fun y -> y + i in\n\
      \    total := !total + f i\n\
      \  done;\n\
      \  !total\n"
  in
  check_rules "closure built per iteration flagged" [ "R8" ] (rules_of (fs, 0))

let r8_hoisted_closure_ok () =
  let fs =
    typed_check ~manifest:(hot_manifest ())
      "let meet n =\n\
      \  let f = fun y -> y + 1 in\n\
      \  let total = ref 0 in\n\
      \  for i = 0 to n do total := !total + f i done;\n\
      \  !total\n"
  in
  check_rules "hoisted closure passes" [] (rules_of (fs, 0))

let r8_only_manifest_functions () =
  (* Same allocating loop, but the function is not in the manifest:
     R8 gates only declared hot paths. *)
  let fs =
    typed_check ~manifest:(hot_manifest ())
      "let other n =\n\
      \  let total = ref 0 in\n\
      \  for i = 0 to n do\n\
      \    let f = fun y -> y + i in\n\
      \    total := !total + f i\n\
      \  done;\n\
      \  !total\n"
  in
  check_rules "undeclared functions are not held to R8" [] (rules_of (fs, 0))

let r8_tuple_in_hot_loop () =
  let fs =
    typed_check ~manifest:(hot_manifest ())
      "let meet n =\n\
      \  let total = ref 0 in\n\
      \  for i = 0 to n do\n\
      \    let p = (i, i) in\n\
      \    total := !total + fst p\n\
      \  done;\n\
      \  !total\n"
  in
  check_rules "tuple allocated per iteration flagged" [ "R8" ]
    (rules_of (fs, 0))

(* --- R9: exception escape from a spawn entrypoint ---- *)

let r9_raise_escapes_spawn () =
  let fs =
    typed_check
      (thread_stub
      ^ "let worker () = failwith \"boom\"\n\
         let start () = Thread.create worker ()\n")
  in
  check_rules "failwith escaping Thread.create flagged" [ "R9" ]
    (rules_of (fs, 0))

let r9_closure_entrypoint () =
  let fs =
    typed_check
      (thread_stub
      ^ "exception Boom\n\
         let start () = Thread.create (fun () -> raise Boom) ()\n")
  in
  check_rules "raise in an inline spawn closure flagged" [ "R9" ]
    (rules_of (fs, 0))

let r9_wrapped_ok () =
  let fs =
    typed_check
      (thread_stub
      ^ "let worker () = try failwith \"boom\" with _ -> ()\n\
         let start () = Thread.create worker ()\n")
  in
  check_rules "a handler wrapping the raise passes" [] (rules_of (fs, 0))

let r9_suppressed () =
  let src =
    thread_stub
    ^ "let worker () = failwith \"boom\"\n\
       (* rv_lint: allow R9 -- fixture: the runtime logs escaping exns *)\n\
       let start () = Thread.create worker ()\n"
  in
  let directives, derrs = Suppress.scan ~path:fixture_path src in
  check_int "directive well-formed" 0 (List.length derrs);
  let kept, suppressed = Suppress.apply directives (typed_check src) in
  check_rules "reasoned allow silences R9" [] (rules_of (kept, suppressed));
  check_int "one escape finding suppressed" 1 suppressed

(* The analyzer must degrade, not crash: an empty structure and a unit
   with nothing relevant both analyse to zero findings. *)
let typed_empty_unit_ok () =
  let fs = typed_check "let x = 1\n" in
  check_rules "nothing relevant, nothing reported" [] (rules_of (fs, 0))

(* ------------------------------------------------------------ manifest *)

let manifest_parse_and_match () =
  let m, errs =
    Manifest.parse ~path:"hot.txt"
      "# comment\n\n\
       hot A.f lib/a.ml\n\
       dispatcher B.g\n"
  in
  check_int "well-formed manifest parses clean" 0 (List.length errs);
  Alcotest.(check bool) "hot entry matches func+file" true
    (Manifest.is_hot m ~func:"A.f" ~file:"lib/a.ml");
  Alcotest.(check bool) "source suffix is required when declared" false
    (Manifest.is_hot m ~func:"A.f" ~file:"lib/b.ml");
  Alcotest.(check bool) "file-less dispatcher entry matches anywhere" true
    (Manifest.is_dispatcher m ~func:"B.g" ~file:"lib/anything.ml");
  Alcotest.(check bool) "hot and dispatcher namespaces are separate" false
    (Manifest.is_dispatcher m ~func:"A.f" ~file:"lib/a.ml")

let manifest_malformed_lines () =
  let _, errs =
    Manifest.parse ~path:"hot.txt" "warm A.f lib/a.ml\nhot\n"
  in
  check_rules "each malformed line is a Lint finding, never an exception"
    [ "lint"; "lint" ] (rules_of (errs, 0))

(* ------------------------------------------------------------ baseline *)

let mk_finding ?(line = 3) ?(file = "lib/a.ml") ?(rule = Report.R8)
    ?(message = "hot path A.f: closure construction in a loop body") () =
  { Report.file; line; col = 0; rule; message }

let baseline_forgives_known () =
  let old = mk_finding () in
  let bl = Baseline.of_findings [ old ] in
  (* Same (file, rule, message) on a different line: reflow must not
     churn the baseline. *)
  let d = Baseline.diff ~baseline:bl [ mk_finding ~line:40 () ] in
  check_int "moved finding still baselined" 0 (List.length d.Baseline.fresh);
  check_int "nothing removed" 0 (List.length d.Baseline.removed)

let baseline_fails_new () =
  let old = mk_finding () in
  let bl = Baseline.of_findings [ old ] in
  let fresh = mk_finding ~file:"lib/b.ml" ~rule:Report.R6 ~message:"order" () in
  let d = Baseline.diff ~baseline:bl [ old; fresh ] in
  check_rules "only the new finding is fresh" [ "R6" ]
    (rules_of (d.Baseline.fresh, 0));
  check_int "nothing removed" 0 (List.length d.Baseline.removed)

let baseline_counts_are_multisets () =
  let old = mk_finding () in
  let bl = Baseline.of_findings [ old ] in
  let d = Baseline.diff ~baseline:bl [ old; mk_finding ~line:9 () ] in
  check_int "second occurrence of a baselined key is fresh" 1
    (List.length d.Baseline.fresh)

let baseline_reports_removed () =
  let old = mk_finding () in
  let bl = Baseline.of_findings [ old ] in
  let d = Baseline.diff ~baseline:bl [] in
  check_int "no fresh findings" 0 (List.length d.Baseline.fresh);
  match d.Baseline.removed with
  | [ (k, n) ] ->
      Alcotest.(check string) "removed key file" "lib/a.ml" k.Baseline.k_file;
      check_int "removed count" 1 n
  | r -> Alcotest.failf "expected one removed entry, got %d" (List.length r)

let baseline_json_roundtrip () =
  let fs =
    [ mk_finding (); mk_finding ~line:9 ();
      mk_finding ~file:"lib/b.ml" ~rule:Report.R6 ~message:"order" () ]
  in
  let bl = Baseline.of_findings fs in
  let path = Filename.temp_file "rv_lint_baseline" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  output_string oc (Baseline.to_string bl);
  close_out oc;
  match Baseline.load path with
  | Error e -> Alcotest.failf "roundtrip load failed: %s" e
  | Ok bl' ->
      check_int "diff against the reloaded baseline is empty" 0
        (List.length (Baseline.diff ~baseline:bl' fs).Baseline.fresh)

let baseline_corrupt_is_error () =
  let path = Filename.temp_file "rv_lint_baseline" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  output_string oc "{ not json";
  close_out oc;
  match Baseline.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt baseline must be an Error, not Ok"

(* ----------------------------------------------------------- self-check *)

(* dune runs tests from _build/default/test; walk up to the project root
   (the directory holding dune-project) so the gate covers the real tree. *)
let rec find_root dir =
  if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_root parent

(* Run [f root] with the cwd moved to the project root, restoring it
   afterwards.  dune-project is not copied into _build, so the walk
   escapes the sandbox and lands on the real checkout: sources,
   artifacts, manifest and baseline are all reachable from there. *)
let with_root f =
  match find_root (Sys.getcwd ()) with
  | None -> Alcotest.fail "could not locate the project root from the test cwd"
  | Some root ->
      let cwd = Sys.getcwd () in
      Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
      Sys.chdir root;
      f root

(* Where the .cmt artifacts live relative to the located root: under
   _build/default when running from a source checkout, or the root
   itself when the tests already run inside _build/default. *)
let artifact_dir () =
  if Sys.file_exists "_build/default" && Sys.is_directory "_build/default"
  then Some "_build/default"
  else if Sys.file_exists "lib" then Some "."
  else None

let self_check () =
  with_root @@ fun _root ->
  (* Source pass only: the typed pass is gated against the baseline by
     [typed_tree_clean] below, since the accepted R8 debt lives there. *)
  let options = { Driver.default_options with typed = false } in
  let r = Driver.run ~options config [ "lib" ] in
  Alcotest.(check bool) "lib/ was found" true (r.Driver.files > 0);
  List.iter (fun f -> print_endline (Report.to_string f)) r.Driver.findings;
  check_int "shipped lib/ tree is lint-clean" 0 (List.length r.Driver.findings)

(* The analyzer must never raise on any artifact dune produced: decode
   every .cmt under the build dir and run the full typed analysis. *)
let typed_never_crashes () =
  with_root @@ fun _root ->
  match artifact_dir () with
  | None -> ()
  | Some bdir ->
      let scan = Typed.scan_cmts ~build_dir:bdir ~within:[] in
      Alcotest.(check bool) "some units decoded" true (scan.Typed.cs_read > 0);
      let manifest, merrs =
        if Sys.file_exists "lint_hotpaths.txt" then
          Manifest.load "lint_hotpaths.txt"
        else (Manifest.empty, [])
      in
      check_int "checked-in manifest parses clean" 0 (List.length merrs);
      let fs = Typed.analyze ~config ~manifest scan.Typed.cs_units in
      check_int "analyzed without raising" 0 (0 * List.length fs)

(* The full gate over lib/: both passes plus suppressions must leave
   nothing beyond the checked-in baseline (nothing at all when the
   hot-path manifest is absent, since R8 only gates declared paths and
   the tree is clean under R6/R7/R9).  The baseline must also re-render
   to its own bytes, so a JSON codec change cannot silently reformat the
   checked-in file. *)
let typed_tree_clean () =
  with_root @@ fun _root ->
  match artifact_dir () with
  | None -> ()
  | Some bdir ->
      let options = { Driver.default_options with build_dir = Some bdir } in
      let r = Driver.run ~options config [ "lib" ] in
      Alcotest.(check bool) "typed units were analysed" true (r.Driver.units > 0);
      let fresh =
        if Sys.file_exists "lint_baseline.json" then
          match Baseline.load "lint_baseline.json" with
          | Error e -> Alcotest.failf "checked-in baseline unreadable: %s" e
          | Ok bl ->
              Alcotest.(check string) "baseline re-renders byte for byte"
                (In_channel.with_open_bin "lint_baseline.json" In_channel.input_all)
                (Baseline.to_string bl);
              (Baseline.diff ~baseline:bl r.Driver.findings).Baseline.fresh
        else r.Driver.findings
      in
      List.iter (fun f -> print_endline (Report.to_string f)) fresh;
      check_int "lib/ is clean under R6..R9 beyond the baseline" 0
        (List.length fresh)

let () =
  Alcotest.run "rv_lint"
    [
      ( "r1",
        [ tc "positive" r1_positive; tc "rng exempt" r1_rng_exempt;
          tc "suppressed" r1_suppressed ] );
      ( "r2",
        [ tc "positive" r2_positive; tc "sorted ok" r2_sorted_ok;
          tc "suppressed" r2_suppressed ] );
      ( "r3",
        [ tc "positive" r3_positive; tc "atomic ok" r3_atomic_ok;
          tc "out of scope" r3_out_of_scope; tc "local ok" r3_local_ok;
          tc "nested module" r3_nested_module; tc "suppressed" r3_suppressed ] );
      ( "r4",
        [ tc "positive" r4_positive; tc "float eq" r4_float_eq;
          tc "typed ok" r4_typed_ok; tc "suppressed" r4_suppressed ] );
      ( "r5",
        [ tc "positive" r5_positive; tc "balanced ok" r5_balanced_ok;
          tc "serve span closure ok" r5_serve_span_closure_ok;
          tc "serve unpaired flagged" r5_serve_unpaired_flagged;
          tc "serve paired ok" r5_serve_paired_ok;
          tc "suppressed" r5_suppressed;
          tc "stage positive" r5_stage_positive;
          tc "stage balanced ok" r5_stage_balanced_ok;
          tc "stage not span" r5_stage_not_span;
          tc "stage suppressed" r5_stage_suppressed ] );
      ( "suppression",
        [ tc "bare allow rejected" bare_allow_rejected;
          tc "unknown rule rejected" unknown_rule_rejected;
          tc "window is next line" allow_window_is_next_line;
          tc "allow-file" allow_file_covers_all;
          tc "parse error" parse_error_is_finding ] );
      ( "report",
        [ tc "format" finding_format; tc "sorted" findings_sorted ] );
      ( "r6",
        [ tc "inconsistent order" r6_inconsistent_order;
          tc "consistent order ok" r6_consistent_order_ok;
          tc "nested lock is r7" r6_nested_lock_is_r7;
          tc "suppressed" r6_suppressed ] );
      ( "r7",
        [ tc "blocking under lock" r7_blocking_under_lock;
          tc "after unlock ok" r7_blocking_after_unlock_ok;
          tc "via callee" r7_via_callee;
          tc "dispatcher hot path" r7_dispatcher_hot_path;
          tc "suppressed" r7_suppressed ] );
      ( "r8",
        [ tc "closure in hot loop" r8_closure_in_hot_loop;
          tc "hoisted ok" r8_hoisted_closure_ok;
          tc "manifest-gated" r8_only_manifest_functions;
          tc "tuple in hot loop" r8_tuple_in_hot_loop ] );
      ( "r9",
        [ tc "raise escapes spawn" r9_raise_escapes_spawn;
          tc "closure entrypoint" r9_closure_entrypoint;
          tc "wrapped ok" r9_wrapped_ok; tc "suppressed" r9_suppressed;
          tc "empty unit ok" typed_empty_unit_ok ] );
      ( "manifest",
        [ tc "parse and match" manifest_parse_and_match;
          tc "malformed lines" manifest_malformed_lines ] );
      ( "baseline",
        [ tc "forgives known" baseline_forgives_known;
          tc "fails new" baseline_fails_new;
          tc "multiset counts" baseline_counts_are_multisets;
          tc "reports removed" baseline_reports_removed;
          tc "json roundtrip" baseline_json_roundtrip;
          tc "corrupt is error" baseline_corrupt_is_error ] );
      ( "self",
        [ tc "lib/ is clean" self_check;
          tc "typed pass never crashes" typed_never_crashes;
          tc "typed tree clean vs baseline" typed_tree_clean ] );
    ]

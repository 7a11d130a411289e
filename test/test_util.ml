(* Tests for rv_util: deterministic RNG, combinatorics (the relabeling
   substrate), bit strings (the label substrate), tables and statistics. *)

module Rng = Rv_util.Rng
module Combinat = Rv_util.Combinat
module Bitseq = Rv_util.Bitseq
module Table = Rv_util.Table
module Stats = Rv_util.Stats

let check = Alcotest.(check int)

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

(* ------------------------------------------------------------------ Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:17 and b = Rng.create ~seed:17 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:17 and b = Rng.create ~seed:18 in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 b then distinct := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !distinct

let test_rng_split_independent () =
  let a = Rng.create ~seed:17 in
  let c = Rng.split a in
  (* The split stream and the parent's continuation disagree somewhere. *)
  let distinct = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 a <> Rng.bits64 c then distinct := true
  done;
  Alcotest.(check bool) "split independent" true !distinct

let test_rng_copy () =
  let a = Rng.create ~seed:3 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_invalid () =
  let t = Rng.create ~seed:0 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int t 0));
  Alcotest.check_raises "int_in empty" (Invalid_argument "Rng.int_in: empty range")
    (fun () -> ignore (Rng.int_in t 3 2));
  Alcotest.check_raises "choose empty" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Rng.choose t [||]))

let prop_int_bounds =
  qtest "Rng.int stays in [0, bound)"
    QCheck.(pair (int_bound 1000) (int_range 1 500))
    (fun (seed, bound) ->
      let t = Rng.create ~seed in
      let v = Rng.int t bound in
      0 <= v && v < bound)

let prop_int_in_bounds =
  qtest "Rng.int_in stays in [lo, hi]"
    QCheck.(triple (int_bound 1000) (int_range (-50) 50) (int_bound 100))
    (fun (seed, lo, extent) ->
      let t = Rng.create ~seed in
      let hi = lo + extent in
      let v = Rng.int_in t lo hi in
      lo <= v && v <= hi)

let prop_permutation =
  qtest "Rng.permutation is a permutation"
    QCheck.(pair (int_bound 1000) (int_range 1 64))
    (fun (seed, n) ->
      let t = Rng.create ~seed in
      let p = Rng.permutation t n in
      List.sort_uniq Int.compare (Array.to_list p) = List.init n (fun i -> i))

let prop_shuffle_preserves =
  qtest "Rng.shuffle preserves multiset"
    QCheck.(pair (int_bound 1000) (list_of_size Gen.(1 -- 40) small_int))
    (fun (seed, xs) ->
      let t = Rng.create ~seed in
      let a = Array.of_list xs in
      Rng.shuffle t a;
      List.sort Int.compare (Array.to_list a) = List.sort Int.compare xs)

let prop_sample_distinct =
  qtest "Rng.sample_distinct yields k distinct in range"
    QCheck.(triple (int_bound 1000) (int_range 0 20) (int_range 0 20))
    (fun (seed, k, extra) ->
      let n = k + extra in
      let t = Rng.create ~seed in
      if n = 0 then true
      else begin
        let s = Rng.sample_distinct t k n in
        List.length s = k
        && List.length (List.sort_uniq Int.compare s) = k
        && List.for_all (fun x -> 0 <= x && x < n) s
      end)

(* ------------------------------------------------------------- Combinat *)

let test_binomial_values () =
  check "C(0,0)" 1 (Combinat.binomial 0 0);
  check "C(5,0)" 1 (Combinat.binomial 5 0);
  check "C(5,5)" 1 (Combinat.binomial 5 5);
  check "C(5,2)" 10 (Combinat.binomial 5 2);
  check "C(10,3)" 120 (Combinat.binomial 10 3);
  check "C(52,5)" 2598960 (Combinat.binomial 52 5);
  check "C(5,6)" 0 (Combinat.binomial 5 6);
  check "C(5,-1)" 0 (Combinat.binomial 5 (-1))

let test_binomial_saturates () =
  check "C(200,100) saturates" max_int (Combinat.binomial 200 100)

let test_binomial_negative_n () =
  Alcotest.check_raises "negative n" (Invalid_argument "Combinat.binomial: negative n")
    (fun () -> ignore (Combinat.binomial (-1) 0))

let prop_binomial_symmetry =
  qtest "C(n,k) = C(n,n-k)"
    QCheck.(pair (int_range 0 40) (int_range 0 40))
    (fun (n, k) -> Combinat.binomial n k = Combinat.binomial n (n - k) || k > n)

let prop_binomial_pascal =
  qtest "Pascal identity"
    QCheck.(pair (int_range 1 40) (int_range 1 39))
    (fun (n, k) ->
      k > n
      || Combinat.binomial n k
         = Combinat.binomial (n - 1) (k - 1) + Combinat.binomial (n - 1) k)

let prop_min_t_minimal =
  qtest "min_t_for is minimal"
    QCheck.(pair (int_range 1 6) (int_range 1 10000))
    (fun (w, count) ->
      let t = Combinat.min_t_for ~w ~count in
      Combinat.binomial t w >= count && (t = w || Combinat.binomial (t - 1) w < count))

let prop_subset_roundtrip =
  qtest "subset_of_rank / rank_of_subset round-trip"
    QCheck.(triple (int_range 1 12) (int_range 0 12) (int_bound 1000))
    (fun (t, w, r) ->
      if w > t then true
      else begin
        let total = Combinat.binomial t w in
        let rank = r mod total in
        let bits = Combinat.subset_of_rank ~t ~w ~rank in
        Combinat.weight bits = w
        && Array.length bits = t
        && Combinat.rank_of_subset bits = rank
      end)

let prop_subset_lex_order =
  qtest "consecutive ranks are lexicographically ordered"
    QCheck.(pair (int_range 2 10) (int_range 1 9))
    (fun (t, w) ->
      if w >= t then true
      else begin
        let total = Combinat.binomial t w in
        let ok = ref true in
        for rank = 0 to total - 2 do
          let a = Combinat.subset_of_rank ~t ~w ~rank in
          let b = Combinat.subset_of_rank ~t ~w ~rank:(rank + 1) in
          if Bitseq.compare_lex a b >= 0 then ok := false
        done;
        !ok
      end)

let test_all_subsets () =
  let subsets = Combinat.all_subsets ~t:5 ~w:2 in
  check "count" 10 (List.length subsets);
  Alcotest.(check bool) "all weight 2" true
    (List.for_all (fun s -> Combinat.weight s = 2) subsets);
  check "distinct" 10
    (List.length
       (List.sort_uniq (Rv_util.Ord.by Bitseq.to_string Rv_util.Ord.string) subsets));
  (* Lexicographically smallest string of weight 2 is 00011. *)
  Alcotest.(check string) "first" "00011" (Bitseq.to_string (List.hd subsets))

let test_subset_invalid () =
  Alcotest.check_raises "rank out of range"
    (Invalid_argument "Combinat.subset_of_rank: rank out of range") (fun () ->
      ignore (Combinat.subset_of_rank ~t:4 ~w:2 ~rank:6))

(* --------------------------------------------------------------- Bitseq *)

let test_bitseq_examples () =
  Alcotest.(check string) "of_int 1" "1" (Bitseq.to_string (Bitseq.of_int 1));
  Alcotest.(check string) "of_int 6" "110" (Bitseq.to_string (Bitseq.of_int 6));
  Alcotest.(check string) "of_int 10" "1010" (Bitseq.to_string (Bitseq.of_int 10));
  check "to_int 1010" 10 (Bitseq.to_int (Bitseq.of_string "1010"));
  check "to_int leading zeros" 5 (Bitseq.to_int (Bitseq.of_string "000101"))

let prop_bitseq_roundtrip =
  qtest "of_int / to_int round-trip"
    QCheck.(int_range 1 1_000_000)
    (fun n -> Bitseq.to_int (Bitseq.of_int n) = n)

let prop_bitseq_string_roundtrip =
  qtest "of_string / to_string round-trip"
    QCheck.(string_gen_of_size Gen.(1 -- 30) (Gen.oneofl [ '0'; '1' ]))
    (fun s -> Bitseq.to_string (Bitseq.of_string s) = s)

let test_bitseq_prefix () =
  let p = Bitseq.of_string "10" and s = Bitseq.of_string "101" in
  Alcotest.(check bool) "10 prefix of 101" true (Bitseq.is_prefix p s);
  Alcotest.(check bool) "101 not prefix of 10" false (Bitseq.is_prefix s p);
  Alcotest.(check bool) "self prefix" true (Bitseq.is_prefix p p);
  Alcotest.(check bool) "11 not prefix of 101" false
    (Bitseq.is_prefix (Bitseq.of_string "11") s)

let prop_bitseq_lex_matches_string_order =
  (* On '0'/'1' strings, OCaml string comparison IS lexicographic bit
     comparison, including the shorter-prefix-smaller rule. *)
  qtest "compare_lex agrees with string compare"
    QCheck.(
      pair
        (string_gen_of_size Gen.(0 -- 12) (Gen.oneofl [ '0'; '1' ]))
        (string_gen_of_size Gen.(0 -- 12) (Gen.oneofl [ '0'; '1' ])))
    (fun (a, b) ->
      compare
        (Bitseq.compare_lex (Bitseq.of_string a) (Bitseq.of_string b))
        0
      = compare (compare a b) 0)

let test_double_each () =
  Alcotest.(check string) "double 101" "110011"
    (Bitseq.to_string (Bitseq.double_each (Bitseq.of_string "101")));
  Alcotest.(check string) "double empty" "" (Bitseq.to_string (Bitseq.double_each [||]))

let test_bitseq_invalid () =
  Alcotest.check_raises "of_int 0" (Invalid_argument "Bitseq.of_int: n must be >= 1")
    (fun () -> ignore (Bitseq.of_int 0));
  Alcotest.check_raises "to_int empty" (Invalid_argument "Bitseq.to_int: empty")
    (fun () -> ignore (Bitseq.to_int [||]))

(* ---------------------------------------------------------------- Table *)

let test_table_validation () =
  Alcotest.check_raises "ragged row"
    (Invalid_argument "Table.make: row 0 has 2 cells, expected 3") (fun () ->
      ignore (Table.make ~title:"t" ~headers:[ "a"; "b"; "c" ] [ [ "1"; "2" ] ]))

let test_table_render () =
  let t = Table.make ~title:"demo" ~headers:[ "x"; "yy" ] [ [ "1"; "2" ]; [ "30"; "4" ] ] in
  let ascii = Table.render_ascii t in
  Alcotest.(check bool) "title present" true (contains ~needle:"demo" ascii);
  Alcotest.(check bool) "cell present" true (contains ~needle:"30" ascii);
  let md = Table.render_markdown t in
  Alcotest.(check bool) "markdown header" true (contains ~needle:"### demo" md);
  Alcotest.(check bool) "markdown has header sep" true (String.contains md '|')

let test_table_cells () =
  Alcotest.(check string) "ratio" "0.50" (Table.cell_ratio 1.0 2.0);
  Alcotest.(check string) "ratio zero" "-" (Table.cell_ratio 1.0 0.0);
  Alcotest.(check string) "float digits" "3.142" (Table.cell_float ~digits:3 3.14159)

(* ---------------------------------------------------------------- Stats *)

let test_percentiles () =
  let s = Stats.summarize (List.init 11 (fun i -> i)) in
  Alcotest.(check (float 1e-9)) "p90 of 0..10" 9.0 s.Stats.p90;
  Alcotest.(check bool) "stddev positive" true (s.Stats.stddev > 0.0);
  let single = Stats.summarize [ 42 ] in
  Alcotest.(check (float 1e-9)) "single median" 42.0 single.Stats.median;
  (* Nearest rank: over 1..100, p99 is the 99th-smallest sample and p50
     the 50th — not the max and the 51st. *)
  let a = Array.init 100 (fun i -> i + 1) in
  check "p99 of 1..100" 99 (Stats.percentile a 0.99);
  check "p50 of 1..100" 50 (Stats.percentile a 0.5);
  check "p100 is the max" 100 (Stats.percentile a 1.0);
  check "p0 is the min" 1 (Stats.percentile a 0.0);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile [||] 0.5))

let test_summarize () =
  let s = Stats.summarize [ 1; 2; 3; 4; 100 ] in
  check "count" 5 s.Stats.count;
  check "min" 1 s.Stats.min;
  check "max" 100 s.Stats.max;
  Alcotest.(check (float 1e-9)) "mean" 22.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "median" 3.0 s.Stats.median

let prop_percentile_rank =
  qtest "percentile is the ceil(p*n)-th smallest sample"
    QCheck.(
      triple (list_of_size Gen.(1 -- 60) (int_range (-20) 20)) small_nat
        (float_bound_inclusive 1.0))
    (fun (xs, k, q) ->
      let n = List.length xs in
      (* Half the cases put p on a multiple of 1/n, where an off-by-one
         rank shows. *)
      let p = if k land 1 = 0 then float_of_int (k / 2 mod (n + 1)) /. float_of_int n else q in
      let a = Array.of_list (List.sort Int.compare xs) in
      let r = Stats.percentile a p in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      let count f = List.length (List.filter f xs) in
      List.mem r xs && count (fun x -> x <= r) >= rank && count (fun x -> x < r) < max 1 rank)

let test_summarize_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty") (fun () ->
      ignore (Stats.summarize []))

let test_argmax () =
  let x, v = Stats.argmax String.length [ "a"; "abc"; "ab" ] in
  Alcotest.(check string) "argmax" "abc" x;
  check "max value" 3 v;
  let y, w = Stats.argmin String.length [ "ab"; "a"; "abc" ] in
  Alcotest.(check string) "argmin" "a" y;
  check "min value" 1 w

let prop_linear_fit_exact =
  qtest "linear_fit recovers an exact line"
    QCheck.(triple (int_range (-20) 20) (int_range (-20) 20) (int_range 2 30))
    (fun (a, b, npoints) ->
      let points =
        List.init npoints (fun i ->
            (float_of_int i, float_of_int a +. (float_of_int b *. float_of_int i)))
      in
      let a', b' = Stats.linear_fit points in
      abs_float (a' -. float_of_int a) < 1e-6 && abs_float (b' -. float_of_int b) < 1e-6)

let () =
  Alcotest.run "rv_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "invalid arguments" `Quick test_rng_invalid;
          prop_int_bounds;
          prop_int_in_bounds;
          prop_permutation;
          prop_shuffle_preserves;
          prop_sample_distinct;
        ] );
      ( "combinat",
        [
          Alcotest.test_case "binomial values" `Quick test_binomial_values;
          Alcotest.test_case "binomial saturates" `Quick test_binomial_saturates;
          Alcotest.test_case "binomial negative n" `Quick test_binomial_negative_n;
          prop_binomial_symmetry;
          prop_binomial_pascal;
          prop_min_t_minimal;
          prop_subset_roundtrip;
          prop_subset_lex_order;
          Alcotest.test_case "all_subsets" `Quick test_all_subsets;
          Alcotest.test_case "invalid rank" `Quick test_subset_invalid;
        ] );
      ( "bitseq",
        [
          Alcotest.test_case "examples" `Quick test_bitseq_examples;
          prop_bitseq_roundtrip;
          prop_bitseq_string_roundtrip;
          Alcotest.test_case "prefix" `Quick test_bitseq_prefix;
          prop_bitseq_lex_matches_string_order;
          Alcotest.test_case "double_each" `Quick test_double_each;
          Alcotest.test_case "invalid" `Quick test_bitseq_invalid;
        ] );
      ( "table",
        [
          Alcotest.test_case "validation" `Quick test_table_validation;
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          prop_percentile_rank;
          Alcotest.test_case "summarize empty" `Quick test_summarize_empty;
          Alcotest.test_case "argmax/argmin" `Quick test_argmax;
          prop_linear_fit_exact;
        ] );
    ]

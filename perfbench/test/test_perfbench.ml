(* The benchmark's own tests: generators, span arithmetic, and the
   metric catalogue against BENCHMARK.json. *)

open Perfbench
module Key = Rv_index.Key

let pairs seed sweep = Gen.sweep_pairs ~workload:"sweep-ring" ~seed ~sweep ~space:128 ~n:32

let test_sweep_pairs () =
  Alcotest.(check (list (pair int int))) "same seed, same pairs" (pairs 1 3) (pairs 1 3);
  Alcotest.(check bool) "another seed, other pairs" true (pairs 1 3 <> pairs 2 3);
  Alcotest.(check bool) "another sweep, other pairs" true (pairs 1 3 <> pairs 1 4);
  let ps = pairs 7 0 in
  Alcotest.(check int) "32 pairs" 32 (List.length ps);
  Alcotest.(check int) "distinct" 32 (List.length (List.sort_uniq compare ps));
  Alcotest.(check bool) "ordered, in range" true
    (List.for_all (fun (a, b) -> 1 <= a && a < b && b <= 128) ps);
  List.iter
    (fun p -> Alcotest.(check bool) "keeps the adversarial extremes" true (List.mem p ps))
    (Gen.extremes ~space:128);
  Alcotest.(check int) "six extremes at space 32" 6 (List.length (Gen.extremes ~space:32))

let keys qs = Array.to_list (Array.map Key.render qs)

let test_hot_set () =
  Alcotest.(check (list string)) "same seed, same hot set" (keys (Gen.hot_set ~seed:5))
    (keys (Gen.hot_set ~seed:5));
  Alcotest.(check bool) "another seed, another hot set" true
    (keys (Gen.hot_set ~seed:5) <> keys (Gen.hot_set ~seed:6));
  let k = keys (Gen.hot_set ~seed:5) in
  Alcotest.(check int) "distinct keys" Gen.hot_size (List.length (List.sort_uniq compare k))

let cold_keys seed n =
  let c = Gen.cold_stream ~seed in
  List.init n (fun i -> Key.render (Gen.cold_query c i))

let test_cold_deterministic () =
  Alcotest.(check (list string)) "same seed, same stream" (cold_keys 3 500) (cold_keys 3 500);
  Alcotest.(check bool) "another seed, another stream" true (cold_keys 3 500 <> cold_keys 4 500)

(* Two full laps and part of a third: far more than any run sends. *)
let test_cold_unique () =
  let n = (2 * Gen.cold_lap_size) + 1000 in
  let ks = cold_keys 11 n in
  let tbl = Hashtbl.create n in
  List.iter (fun k -> Hashtbl.replace tbl k ()) ks;
  Alcotest.(check int) "every cold key distinct" n (Hashtbl.length tbl);
  let others = keys (Gen.hot_set ~seed:11) @ List.map Key.render (Gen.filler ()) in
  Alcotest.(check bool) "no cold key is a hot or filler key" true
    (List.for_all (fun k -> not (Hashtbl.mem tbl k)) others)

let close = Alcotest.float 1e-9

(* root [0,100] > a [10,40] > a1 [15,20]; root > b [30,60] (overlaps a). *)
let test_self_times () =
  let t = Spans.create () in
  let root = Spans.add t ~name:"root" ~layer:"R" ~id:1 0. 100. in
  let a = Spans.add t ~parent:root ~name:"a" ~layer:"A" ~id:1 10. 40. in
  let _ = Spans.add t ~parent:a ~name:"a1" ~layer:"B" ~id:1 15. 20. in
  let _ = Spans.add t ~parent:root ~name:"b" ~layer:"B" ~id:1 30. 60. in
  let self = Spans.self_times t in
  Alcotest.check close "root minus the union of its children" 50. self.(0);
  Alcotest.check close "a minus a1" 25. self.(1);
  Alcotest.check close "leaf" 5. self.(2);
  Alcotest.check close "leaf b" 30. self.(3);
  let rows = Spans.by_layer t in
  Alcotest.(check (list string)) "layers in order" [ "R"; "A"; "B" ]
    (List.map (fun r -> r.Spans.r_layer) rows);
  Alcotest.check close "layer B sums its spans" 35. (List.nth rows 2).Spans.self_us;
  Alcotest.(check int) "layer B calls" 2 (List.nth rows 2).Spans.calls

let test_nest () =
  let t = Spans.create () in
  let root = Spans.add t ~name:"root" ~layer:"R" ~id:0 0. 100. in
  let ids =
    Spans.nest t ~parent:root ~id:0
      [ ("c", "C", 20., 30.); ("k", "K", 10., 50.); ("d", "C", 60., 70.); ("e", "C", 40., 45.) ]
  in
  let parent_of name =
    let rec find = function
      | i :: rest -> if String.equal (Spans.get t i).Spans.name name then (Spans.get t i).Spans.parent else find rest
      | [] -> -2
    in
    find ids
  in
  let index_of name =
    List.find (fun i -> String.equal (Spans.get t i).Spans.name name) ids
  in
  Alcotest.(check int) "outer interval under root" root (parent_of "k");
  Alcotest.(check int) "contained interval under k" (index_of "k") (parent_of "c");
  Alcotest.(check int) "later contained interval under k" (index_of "k") (parent_of "e");
  Alcotest.(check int) "disjoint interval under root" root (parent_of "d");
  let self = Spans.self_times t in
  Alcotest.check close "root self" 50. self.(root)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_catalog () =
  let j =
    match Rv_obs.Json.parse (read_file "../../BENCHMARK.json") with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let listed key =
    match Option.bind (Rv_obs.Json.member key j) Rv_obs.Json.to_list with
    | Some l ->
        List.map
          (fun m ->
            let s k = Option.get (Option.bind (Rv_obs.Json.member k m) Rv_obs.Json.to_str) in
            (s "name", s "unit", s "better"))
          l
    | None -> Alcotest.fail ("BENCHMARK.json has no " ^ key)
  in
  let ours l =
    List.map
      (fun (m : Catalog.metric) ->
        (m.Catalog.name, m.Catalog.unit_, match m.Catalog.better with `Higher -> "higher" | `Lower -> "lower"))
      l
  in
  let metric3 = Alcotest.(triple string string string) in
  Alcotest.(check (list metric3)) "end_to_end" (ours Catalog.end_to_end) (listed "end_to_end");
  Alcotest.(check (list metric3)) "per_layer" (ours Catalog.per_layer) (listed "per_layer");
  let workloads =
    List.map
      (fun w -> Option.get (Option.bind (Rv_obs.Json.member "name" w) Rv_obs.Json.to_str))
      (Option.get (Option.bind (Rv_obs.Json.member "workloads" j) Rv_obs.Json.to_list))
  in
  Alcotest.(check (list string)) "workloads" Catalog.workloads workloads;
  (* Every metric of a mode appears in the result line, even unmeasured. *)
  let line = Catalog.result_line ~correct:true ~attempted:1 ~failed:0 ~trace:true [] in
  match Rv_obs.Json.parse line with
  | Ok r ->
      let names =
        match Rv_obs.Json.member "metrics" r with
        | Some (Rv_obs.Json.Obj fs) -> List.map fst fs
        | _ -> []
      in
      Alcotest.(check (list string)) "result line names"
        (List.map (fun (n, _, _) -> n) (listed "per_layer")) names
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "perfbench"
    [
      ( "generators",
        [
          Alcotest.test_case "sweep pairs are seeded" `Quick test_sweep_pairs;
          Alcotest.test_case "hot set is seeded" `Quick test_hot_set;
          Alcotest.test_case "cold stream is seeded" `Quick test_cold_deterministic;
          Alcotest.test_case "cold keys are unique across a run" `Quick test_cold_unique;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time of nested spans" `Quick test_self_times;
          Alcotest.test_case "nesting by containment" `Quick test_nest;
        ] );
      ("catalog", [ Alcotest.test_case "metrics match BENCHMARK.json" `Quick test_catalog ]);
    ]

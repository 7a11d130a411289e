(* The benchmark runner: one run of one workload.

     rvbench.exe --workload W --seed N --seconds S --trace 0|1

   prints a summary on stderr and, as the last line of stdout, the result
   object with every end-to-end metric (--trace 0) or every per-layer
   metric (--trace 1).  A traced run also writes
   <out>/<workload>.trace.json (Chrome trace) and <out>/<workload>.layers.txt. *)

let usage =
  "rvbench.exe --workload (sweep-ring|sweep-stream|serve-hot|serve-cold) --seed N \
   --seconds S --trace 0|1 [--out DIR] [--rv PATH]"

let () =
  (* A terminated run still stops the servers it started (at_exit). *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1))) [ Sys.sigterm; Sys.sigint ];
  (* A write to a connection the server closed fails with EPIPE and
     counts as failed requests instead of killing the run. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref Sweeps.default_seed and seconds = ref 10. in
  let trace = ref 0 and out = ref ".bench_out" and rv = ref "_build/default/bin/rv.exe" in
  let probe = ref (-1) and reference = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  workload name");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1; 2 is the re-check seed)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or traced per-layer (1) run");
      ("--out", Arg.Set_string out, "DIR  work and trace output directory");
      ("--rv", Arg.Set_string rv, "PATH  the rv executable to serve with");
      ("--setup-probe", Arg.Set_int probe, "K  (internal) one cold sweep set-up sample");
      ("--record-reference", Arg.Set reference, " print the reference-path values of sweep 0");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let sweep_cfg = function
    | "sweep-ring" -> Some Sweeps.ring
    | "sweep-stream" -> Some Sweeps.stream
    | _ -> None
  in
  if not (List.mem !workload Catalog.workloads) && not !reference then begin
    prerr_endline usage;
    exit 2
  end;
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  (* Per-process work files (JSONL streams, the index file). *)
  let dir = Filename.concat !out (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Sys.mkdir dir 0o755;
  let cleanup () =
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  if !reference then
    List.iter (fun c -> Sweeps.record_reference c ~dir) [ Sweeps.ring; Sweeps.stream ]
  else
    match sweep_cfg !workload with
    | Some cfg when !probe >= 0 -> Sweeps.setup_probe cfg ~seed:!seed ~dir ~k:!probe
    | _ ->
        let (attempted, failed), metrics =
          match (sweep_cfg !workload, !trace) with
          | Some cfg, 0 ->
              let t, m = Sweeps.run cfg ~seed:!seed ~seconds:!seconds ~dir in
              ((t.Sweeps.attempted, t.Sweeps.failed), m)
          | Some cfg, _ ->
              let t, m = Sweeps.traced cfg ~seed:!seed ~seconds:!seconds ~dir ~out:!out in
              ((t.Sweeps.attempted, t.Sweeps.failed), m)
          | None, 0 -> Serving.run ~workload:!workload ~rv:!rv ~seed:!seed ~seconds:!seconds ~dir
          | None, _ ->
              Serving.traced ~workload:!workload ~rv:!rv ~seed:!seed ~seconds:!seconds ~dir ~out:!out
        in
        print_endline
          (Catalog.result_line ~correct:(failed = 0 && attempted > 0) ~attempted ~failed
             ~trace:(!trace <> 0) metrics)

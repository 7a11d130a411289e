(* The command line shared by bin/rv_lint.ml and `rv lint`: one set of
   arguments, one man page, identical reports and exit codes (0 clean,
   1 findings, 2 usage error). *)

module Json = Rv_obs.Json

let default_paths = [ "lib"; "bin"; "bench"; "test"; "examples" ]
let core_paths = [ "lib"; "bin"; "bench" ]

let catalog () =
  String.concat "\n"
    (List.map
       (fun r ->
         Printf.sprintf "%s  %s\n    %s" (Report.rule_to_string r) (Report.rule_title r)
           (Report.rule_doc r))
       Report.all_rules)
  ^ "\n"

let parse_rules = function
  | None -> Ok None
  | Some spec ->
      let toks = String.split_on_char ',' spec |> List.map String.trim in
      let rec go acc = function
        | [] -> Ok (Some (List.rev acc))
        | "" :: rest -> go acc rest
        | tok :: rest -> (
            match Report.rule_of_string tok with
            | Some Report.Lint | None -> Error (Printf.sprintf "unknown rule %S (use R1..R9)" tok)
            | Some r -> go (r :: acc) rest)
      in
      go [] toks

let json_report ?(fresh = None) (res : Driver.result) =
  let base =
    [
      ("version", Json.Int 2);
      ("tool", Json.Str "rv_lint");
      ("files", Json.Int res.Driver.files);
      ("units", Json.Int res.Driver.units);
      ("suppressed", Json.Int res.Driver.suppressed);
      ("notes", Json.List (List.map (fun n -> Json.Str n) res.Driver.notes));
      ("ok", Json.Bool (res.Driver.findings = []));
      ("findings", Json.List (List.map Report.to_json res.Driver.findings));
    ]
  in
  Json.Obj
    (match fresh with
    | None -> base
    | Some fs ->
        base
        @ [
            ("baseline_ok", Json.Bool (fs = []));
            ("new_findings", Json.List (List.map Report.to_json fs));
          ])

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* The one entry point both binaries share.  Exit codes: 0 clean (or
   nothing new vs the baseline), 1 findings, 2 usage/configuration
   error. *)
let run ~scope ~typed ~build_dir ~hotpaths ~baseline ~write_baseline ~sarif
    ~json ~rules ~paths =
  match rules with
  | Some "list" ->
      (* `--rules` with no value: print the catalog, succeed. *)
      print_string (catalog ());
      0
  | _ -> (
      match parse_rules rules with
      | Error msg ->
          prerr_endline ("rv_lint: " ^ msg);
          2
      | Ok rules -> (
          let config =
            match rules with
            | None -> Config.default
            | Some rs -> Config.with_rules Config.default rs
          in
          let default_scope =
            match scope with
            | "full" -> Ok default_paths
            | "core" -> Ok core_paths
            | s -> Error (Printf.sprintf "unknown scope %S (use full | core)" s)
          in
          match default_scope with
          | Error msg ->
              prerr_endline ("rv_lint: " ^ msg);
              2
          | Ok default_scope -> (
              let paths =
                if paths = [] then
                  (* Scopes name repo roots; a checkout may lack some. *)
                  List.filter Sys.file_exists default_scope
                else paths
              in
              let missing = List.filter (fun p -> not (Sys.file_exists p)) paths in
              if missing <> [] then begin
                Printf.eprintf "rv_lint: no such path: %s\n" (String.concat ", " missing);
                2
              end
              else
                let options = { Driver.typed; build_dir; hotpaths } in
                let res = Driver.run ~options config paths in
                List.iter
                  (fun n -> Printf.eprintf "rv_lint: note: %s\n" n)
                  res.Driver.notes;
                (match sarif with
                | Some path -> write_file path (Sarif.to_string res.Driver.findings)
                | None -> ());
                match write_baseline with
                | Some path ->
                    write_file path
                      (Baseline.to_string (Baseline.of_findings res.Driver.findings));
                    Printf.eprintf "rv_lint: baseline written to %s (%d finding%s)\n"
                      path
                      (List.length res.Driver.findings)
                      (if List.length res.Driver.findings = 1 then "" else "s");
                    0
                | None -> (
                    match baseline with
                    | None ->
                        if json then print_endline (Json.to_string (json_report res))
                        else begin
                          List.iter
                            (fun f -> print_endline (Report.to_string f))
                            res.Driver.findings;
                          Printf.eprintf
                            "rv_lint: %d file%s, %d unit%s checked, %d finding%s (%d suppressed)\n"
                            res.Driver.files
                            (if res.Driver.files = 1 then "" else "s")
                            res.Driver.units
                            (if res.Driver.units = 1 then "" else "s")
                            (List.length res.Driver.findings)
                            (if List.length res.Driver.findings = 1 then "" else "s")
                            res.Driver.suppressed
                        end;
                        if res.Driver.findings = [] then 0 else 1
                    | Some bpath -> (
                        match Baseline.load bpath with
                        | Error msg ->
                            prerr_endline ("rv_lint: " ^ msg);
                            2
                        | Ok bl ->
                            let d = Baseline.diff ~baseline:bl res.Driver.findings in
                            List.iter
                              (fun (k, n) ->
                                Printf.eprintf
                                  "rv_lint: warning: baseline entry no longer found \
                                   (refresh with --write-baseline): %s [%s] %s (x%d)\n"
                                  k.Baseline.k_file
                                  (Report.rule_to_string k.Baseline.k_rule)
                                  k.Baseline.k_message n)
                              d.Baseline.removed;
                            if json then
                              print_endline
                                (Json.to_string
                                   (json_report ~fresh:(Some d.Baseline.fresh) res))
                            else begin
                              List.iter
                                (fun f -> print_endline (Report.to_string f))
                                d.Baseline.fresh;
                              Printf.eprintf
                                "rv_lint: %d file%s, %d unit%s checked, %d finding%s \
                                 (%d baselined, %d suppressed)\n"
                                res.Driver.files
                                (if res.Driver.files = 1 then "" else "s")
                                res.Driver.units
                                (if res.Driver.units = 1 then "" else "s")
                                (List.length d.Baseline.fresh)
                                (if List.length d.Baseline.fresh = 1 then "" else "s")
                                (List.length res.Driver.findings
                                - List.length d.Baseline.fresh)
                                res.Driver.suppressed
                            end;
                            if d.Baseline.fresh = [] then 0 else 1)))))

open Cmdliner

let paths_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"PATH"
        ~doc:
          "Files or directories to lint (default: the roots selected by \
           $(b,--scope)).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the machine-readable JSON report on stdout.")

let rules_arg =
  Arg.(
    value
    & opt ~vopt:(Some "list") (some string) None
    & info [ "rules" ] ~docv:"R1,R2,..."
        ~doc:
          "Comma-separated subset of rules to run (default: all of R1..R9).  \
           With no value, list the full catalog and exit.")

let catalog_arg =
  Arg.(
    value & flag
    & info [ "catalog" ] ~doc:"Print the rule catalog with rationale and exit.")

let scope_arg =
  Arg.(
    value & opt string "full"
    & info [ "scope" ] ~docv:"full|core"
        ~doc:
          "Default path set when no PATH is given: $(b,full) = lib bin bench \
           test examples; $(b,core) = lib bin bench (the pre-v2 walk).")

let no_typed_arg =
  Arg.(
    value & flag
    & info [ "no-typed" ]
        ~doc:
          "Skip the typed pass (R6..R9) over .cmt artifacts; run only the \
           syntactic source pass.")

let build_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "build-dir" ] ~docv:"DIR"
        ~doc:
          "Directory holding dune's .cmt artifacts for the typed pass \
           (default: _build/default).")

let hotpaths_arg =
  Arg.(
    value & opt (some string) None
    & info [ "hotpaths" ] ~docv:"FILE"
        ~doc:
          "Hot-path manifest naming the functions held to R8's \
           no-allocation discipline and R7's dispatcher checks (default: \
           lint_hotpaths.txt when present).")

let baseline_arg =
  Arg.(
    value & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Diff mode: fail (exit 1) only on findings not in this checked-in \
           baseline; warn on stderr for baselined findings that no longer \
           occur.")

let write_baseline_arg =
  Arg.(
    value & opt (some string) None
    & info [ "write-baseline" ] ~docv:"FILE"
        ~doc:"Write the current findings as a fresh baseline and exit 0.")

let sarif_arg =
  Arg.(
    value & opt (some string) None
    & info [ "sarif" ] ~docv:"FILE"
        ~doc:
          "Additionally write the full (pre-baseline) report as SARIF 2.1.0 \
           to FILE.")

let main paths json rules catalog_only scope no_typed build_dir hotpaths
    baseline write_baseline sarif =
  if catalog_only then begin
    print_string (catalog ());
    0
  end
  else
    run ~scope ~typed:(not no_typed) ~build_dir ~hotpaths ~baseline
      ~write_baseline ~sarif ~json ~rules ~paths

let man =
  [
    `S Manpage.s_description;
    `P
      "Two passes.  The source pass parses every .ml under the given paths \
       and enforces the repo's determinism rules (R1..R5): no unseeded \
       randomness or wall-clock reads, no hash-iteration-order leaks, no \
       unsynchronised top-level mutable state in worker-linked modules, no \
       polymorphic compare/hash on float-bearing values, and balanced \
       observability spans.";
    `P
      "The typed pass reads the .cmt artifacts dune already produced and \
       enforces the concurrency and hot-path rules (R6..R9): an acyclic, \
       consistently ordered mutex-acquisition graph; no blocking calls \
       while a lock is held or inside a dispatcher hot path; no allocation \
       in the loop bodies of functions named in lint_hotpaths.txt; no \
       raise escaping a Thread.create/Domain.spawn entrypoint unhandled.";
    `P
      "Findings are suppressed only by a reasoned inline comment: \
       (* rv_lint: allow R3 -- reason *).  Bare allows are rejected.  \
       Accepted debt lives in a checked-in baseline (see $(b,--baseline)) \
       so CI fails only on new findings.";
    `S Manpage.s_exit_status;
    `P "0 on a clean tree, 1 on unsuppressed findings, 2 on usage errors.";
  ]

let cmd ?version name k =
  let doc = "static determinism & concurrency checks for the rendezvous tree" in
  Cmd.v
    (Cmd.info name ?version ~doc ~man)
    Term.(
      const k
      $ (const main $ paths_arg $ json_arg $ rules_arg $ catalog_arg
       $ scope_arg $ no_typed_arg $ build_dir_arg $ hotpaths_arg $ baseline_arg
       $ write_baseline_arg $ sarif_arg))

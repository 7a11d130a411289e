(* Shared command-line behaviour for bin/rv_lint.ml and `rv lint`.

   Kept here (and free of cmdliner) so both binaries print identical
   reports and agree on exit codes: 0 clean, 1 findings, 2 usage error. *)

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
let run ?(config = Config.default) ?(scope = "full") ?(typed = true)
    ?(build_dir = None) ?(hotpaths = None) ?(baseline = None)
    ?(write_baseline = None) ?(sarif = None) ~json ~rules ~paths () =
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
            match rules with None -> config | Some rs -> Config.with_rules config rs
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

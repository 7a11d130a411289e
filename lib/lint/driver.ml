(* File discovery, parsing, and orchestration of both passes +
   suppressions.

   Everything is deterministic: directory entries are sorted before
   recursion, cmt units are deduped and sorted by source path, and
   findings are re-sorted globally, so the report is byte-identical
   across filesystems and runs — the lint holds itself to the guarantee
   it enforces.

   Stage 1 (source pass) parses every .ml under the requested paths and
   runs the syntactic rules R1..R5.  Stage 2 (typed pass) reads the .cmt
   artifacts dune already produced for those same sources and runs
   R6..R9.  Suppression directives are scanned once, during stage 1, and
   applied to the findings of both passes — an inline allow above a
   Mutex.lock silences the typed R7 finding anchored there exactly as it
   would a source finding. *)

type options = {
  typed : bool;  (* run the typed (.cmt) pass *)
  build_dir : string option;  (* where the artifacts live; None = _build/default *)
  hotpaths : string option;  (* manifest path; None = lint_hotpaths.txt if present *)
}

let default_options = { typed = true; build_dir = None; hotpaths = None }

type result = {
  findings : Report.finding list;  (* unsuppressed, sorted *)
  files : int;
  units : int;  (* compilation units the typed pass analysed *)
  suppressed : int;
  notes : string list;  (* non-fatal: skipped artifacts, missing build dir *)
}

let parse_structure ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  Location.input_name := path;
  match Parse.implementation lexbuf with
  | structure -> Ok structure
  | exception exn ->
      let line =
        match exn with
        | Syntaxerr.Error e -> (Syntaxerr.location_of_error e).loc_start.pos_lnum
        | _ -> lexbuf.Lexing.lex_curr_p.pos_lnum
      in
      let message =
        match exn with
        | Syntaxerr.Error _ -> "syntax error: file does not parse"
        | exn -> "cannot parse: " ^ Printexc.to_string exn
      in
      Error { Report.file = path; line; col = 0; rule = Report.Lint; message }

(* Source-pass check of one unit, also exposing its directives so the
   typed pass can reuse them. *)
let check_source_full config ~path source =
  let directives, directive_errors = Suppress.scan ~path source in
  match parse_structure ~path source with
  | Error f -> ([ f ], 0, directives)
  | Ok structure ->
      let raw = Rules.check ~config ~path structure in
      let kept, suppressed = Suppress.apply directives raw in
      (List.sort Report.compare_finding (kept @ directive_errors), suppressed, directives)

let check_source config ~path source =
  let findings, suppressed, _ = check_source_full config ~path source in
  (findings, suppressed)

let check_file_full config path =
  match In_channel.with_open_bin path In_channel.input_all with
  | source -> check_source_full config ~path source
  | exception Sys_error msg ->
      ( [ { Report.file = path; line = 1; col = 0; rule = Report.Lint; message = "cannot read: " ^ msg } ],
        0,
        [] )

let skip_dir name =
  name = "" || name.[0] = '.' || name = "_build" || name = "node_modules"

let rec ml_files acc path =
  if Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           let child = Filename.concat path entry in
           if Sys.is_directory child then if skip_dir entry then acc else ml_files acc child
           else if Filename.check_suffix entry ".ml" then child :: acc
           else acc)
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let default_hotpaths = "lint_hotpaths.txt"
let default_build_dir = "_build/default"

(* The typed pass over every unit whose source was walked by the source
   pass; suppression directives come from the walked sources, keyed by
   normalized path.  Never raises: a missing build dir or broken cmt is
   a note. *)
let typed_pass ~options ~config ~directives_by_file paths =
  let notes = ref [] in
  let note n = notes := n :: !notes in
  let manifest =
    match options.hotpaths with
    | Some path ->
        let m, errs = Manifest.load path in
        (m, errs)
    | None ->
        if Sys.file_exists default_hotpaths then Manifest.load default_hotpaths
        else begin
          note
            (Printf.sprintf
               "no %s found: R8 and dispatcher R7 checks have no targets"
               default_hotpaths);
          (Manifest.empty, [])
        end
  in
  let manifest, manifest_findings = manifest in
  let build_dir =
    match options.build_dir with
    | Some d -> if Sys.file_exists d then Some d else None
    | None -> if Sys.file_exists default_build_dir then Some default_build_dir else None
  in
  match build_dir with
  | None ->
      note
        (Printf.sprintf
           "typed pass skipped (R6..R9): build directory %s not found; run \
            'dune build' first or pass --build-dir"
           (Option.value ~default:default_build_dir options.build_dir));
      (manifest_findings, 0, 0, List.rev !notes)
  | Some build_dir ->
      let scan = Typed.scan_cmts ~build_dir ~within:paths in
      List.iter note scan.Typed.cs_notes;
      (* Only analyse units whose source the walk actually visited: a
         stale cmt for a deleted file must not resurrect findings, and
         the walked set is what the directive map covers. *)
      let units =
        List.filter
          (fun u -> Hashtbl.mem directives_by_file (Config.normalize u.Typed.u_file))
          scan.Typed.cs_units
      in
      let raw = Typed.analyze ~config ~manifest units in
      let findings, suppressed =
        List.fold_left
          (fun (fs, supp) (file, file_findings) ->
            let ds =
              Option.value ~default:[]
                (Hashtbl.find_opt directives_by_file file)
            in
            let kept, s = Suppress.apply ds file_findings in
            (kept :: fs, supp + s))
          ([], 0)
          (* group by normalized file *)
          (let tbl = Hashtbl.create 16 in
           List.iter
             (fun f ->
               let k = Config.normalize f.Report.file in
               Hashtbl.replace tbl k
                 (f :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
             raw;
           Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) tbl []
           |> List.sort (fun (a, _) (b, _) -> String.compare a b))
      in
      ( manifest_findings @ List.concat findings,
        List.length units,
        suppressed,
        List.rev !notes )

let run ?(options = default_options) config paths =
  let files = List.fold_left ml_files [] paths |> List.rev in
  let directives_by_file = Hashtbl.create 64 in
  let findings, suppressed =
    List.fold_left
      (fun (fs, supp) file ->
        let f, s, ds = check_file_full config file in
        Hashtbl.replace directives_by_file (Config.normalize file) ds;
        (f :: fs, supp + s))
      ([], 0) files
  in
  let typed_findings, units, typed_suppressed, notes =
    if options.typed then typed_pass ~options ~config ~directives_by_file paths
    else ([], 0, 0, [])
  in
  {
    findings =
      List.sort Report.compare_finding (typed_findings @ List.concat findings);
    files = List.length files;
    units;
    suppressed = suppressed + typed_suppressed;
    notes;
  }

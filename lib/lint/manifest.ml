(* The checked-in hot-path manifest (lint_hotpaths.txt).

   One declaration per line; '#' starts a comment; blank lines ignored:

     hot Traj.meet lib/sim/traj.ml
     dispatcher Server.process lib/serve/server.ml

   [hot] entries name functions whose loop bodies the typed pass holds to
   the R8 no-allocation discipline.  [dispatcher] entries name functions
   that form a dispatcher hot path: R7 flags blocking primitives reached
   from them even with no lock held.

   The function name is [Module.binding] where [Module] is the
   compilation unit's short name (file basename, capitalised).  The third
   column is an optional source-path suffix disambiguating same-named
   modules across libraries; when present, the entry only applies to
   compilation units whose recorded source path ends with it. *)

type entry = {
  e_func : string;  (* "Module.binding" *)
  e_file : string option;  (* source-path suffix filter *)
}

type t = {
  hot : entry list;
  dispatchers : entry list;
}

let empty = { hot = []; dispatchers = [] }

let matches ~func ~file entry =
  String.equal entry.e_func func
  &&
  match entry.e_file with
  | None -> true
  | Some suffix ->
      String.equal file suffix
      || String.ends_with ~suffix:("/" ^ suffix) file

let is_hot t ~func ~file = List.exists (matches ~func ~file) t.hot
let is_dispatcher t ~func ~file = List.exists (matches ~func ~file) t.dispatchers

(* --- parsing ----------------------------------------------------------- *)

let split_ws line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let strip_comment line =
  match String.index_opt line '#' with
  | None -> line
  | Some i -> String.sub line 0 i

let parse ~path source =
  let errors = ref [] in
  let bad line msg =
    errors :=
      { Report.file = path; line; col = 0; rule = Report.Lint; message = msg }
      :: !errors
  in
  let hot = ref [] and dispatchers = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      match split_ws (strip_comment line) with
      | [] -> ()
      | kind :: func :: rest -> (
          let entry =
            match rest with
            | [] -> Some { e_func = func; e_file = None }
            | [ file ] -> Some { e_func = func; e_file = Some file }
            | _ ->
                bad lineno
                  (Printf.sprintf
                     "hot-path manifest: too many fields on line %d (want: kind \
                      Module.func [source-suffix])"
                     lineno);
                None
          in
          match entry with
          | None -> ()
          | Some e ->
              if not (String.contains func '.') then
                bad lineno
                  (Printf.sprintf
                     "hot-path manifest: %S is not of the form Module.func" func)
              else (
                match kind with
                | "hot" -> hot := e :: !hot
                | "dispatcher" -> dispatchers := e :: !dispatchers
                | _ ->
                    bad lineno
                      (Printf.sprintf
                         "hot-path manifest: unknown entry kind %S (use hot | \
                          dispatcher)"
                         kind)))
      | [ only ] ->
          bad lineno
            (Printf.sprintf
               "hot-path manifest: lone token %S (want: kind Module.func \
                [source-suffix])"
               only))
    (String.split_on_char '\n' source);
  ( { hot = List.rev !hot; dispatchers = List.rev !dispatchers },
    List.rev !errors )

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | source -> parse ~path source
  | exception Sys_error msg ->
      ( empty,
        [
          {
            Report.file = path;
            line = 1;
            col = 0;
            rule = Report.Lint;
            message = "cannot read hot-path manifest: " ^ msg;
          };
        ] )

(* Baseline / diff mode.

   A baseline is a checked-in multiset of findings keyed by
   (file, rule, message) — deliberately NOT by line, so reflowing a file
   does not churn the baseline; typed-pass messages are written to be
   line-free and stable for exactly this reason.  Under --baseline the
   lint fails only on findings *in excess of* the baselined count for
   their key; keys whose count dropped are reported as a warning so the
   baseline gets refreshed (with --write-baseline) rather than rotting. *)

module Json = Rv_obs.Json

type key = {
  k_file : string;
  k_rule : Report.rule;
  k_message : string;
}

let compare_key a b =
  let c = String.compare a.k_file b.k_file in
  if c <> 0 then c
  else
    let c =
      String.compare
        (Report.rule_to_string a.k_rule)
        (Report.rule_to_string b.k_rule)
    in
    if c <> 0 then c else String.compare a.k_message b.k_message

type t = (key * int) list  (* sorted by key, counts >= 1 *)

let key_of_finding (f : Report.finding) =
  { k_file = Config.normalize f.Report.file; k_rule = f.Report.rule;
    k_message = f.Report.message }

let of_findings findings =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let k = key_of_finding f in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    findings;
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare_key a b)

let to_json (t : t) =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("tool", Json.Str "rv_lint");
      ( "entries",
        Json.List
          (List.map
             (fun (k, count) ->
               Json.Obj
                 [
                   ("file", Json.Str k.k_file);
                   ("rule", Json.Str (Report.rule_to_string k.k_rule));
                   ("message", Json.Str k.k_message);
                   ("count", Json.Int count);
                 ])
             t) );
    ]

let to_string t = Json.to_string (to_json t) ^ "\n"

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let str field o =
    match Option.bind (Json.member field o) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "baseline entry missing %S" field)
  in
  let* entries =
    match Option.bind (Json.member "entries" j) Json.to_list with
    | Some es -> Ok es
    | None -> Error "baseline has no \"entries\" array"
  in
  let* entries =
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* file = str "file" e in
        let* rule_s = str "rule" e in
        let* message = str "message" e in
        let* rule =
          match Report.rule_of_string rule_s with
          | Some r -> Ok r
          | None -> Error (Printf.sprintf "baseline names unknown rule %S" rule_s)
        in
        let count =
          Option.value ~default:1
            (Option.bind (Json.member "count" e) Json.to_int)
        in
        Ok
          (( { k_file = Config.normalize file; k_rule = rule; k_message = message },
             max 1 count )
          :: acc))
      (Ok []) entries
  in
  Ok (List.sort (fun (a, _) (b, _) -> compare_key a b) entries)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error ("cannot read baseline: " ^ msg)
  | source -> (
      match Json.parse source with
      | Error msg -> Error (Printf.sprintf "baseline %s does not parse: %s" path msg)
      | Ok j -> of_json j)

type diff = {
  fresh : Report.finding list;  (** findings in excess of the baseline, sorted *)
  removed : (key * int) list;  (** baselined keys whose count dropped, by how many *)
}

let count t k =
  match List.find_opt (fun (k', _) -> compare_key k k' = 0) t with
  | Some (_, c) -> c
  | None -> 0

let diff ~baseline findings =
  (* Group current findings per key, preserving their sorted order; the
     first [baselined] occurrences of a key are forgiven, later ones are
     fresh — deterministic because findings arrive globally sorted. *)
  let seen = Hashtbl.create 64 in
  let fresh =
    List.filter
      (fun f ->
        let k = key_of_finding f in
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen k) in
        Hashtbl.replace seen k n;
        n > count baseline k)
      findings
  in
  let removed =
    List.filter_map
      (fun (k, c) ->
        let cur = Option.value ~default:0 (Hashtbl.find_opt seen k) in
        if cur < c then Some (k, c - cur) else None)
      baseline
  in
  { fresh; removed }

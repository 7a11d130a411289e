(* SARIF 2.1.0 rendering of a lint report, for CI artifact upload and
   code-scanning UIs.  One run, one driver, the full R1..R9 catalog in
   the rules table (plus the internal "lint" rule for input defects);
   results point at (file, line, col+1) physical locations. *)

module Json = Rv_obs.Json

let rule_descriptor r =
  Json.Obj
    [
      ("id", Json.Str (Report.rule_to_string r));
      ("name", Json.Str (Report.rule_title r));
      ("shortDescription", Json.Obj [ ("text", Json.Str (Report.rule_title r)) ]);
      ("fullDescription", Json.Obj [ ("text", Json.Str (Report.rule_doc r)) ]);
      ( "defaultConfiguration",
        Json.Obj [ ("level", Json.Str "error") ] );
    ]

let result (f : Report.finding) =
  Json.Obj
    [
      ("ruleId", Json.Str (Report.rule_to_string f.Report.rule));
      ("level", Json.Str "error");
      ("message", Json.Obj [ ("text", Json.Str f.Report.message) ]);
      ( "locations",
        Json.List
          [
            Json.Obj
              [
                ( "physicalLocation",
                  Json.Obj
                    [
                      ( "artifactLocation",
                        Json.Obj
                          [
                            ("uri", Json.Str (Config.normalize f.Report.file));
                            ("uriBaseId", Json.Str "SRCROOT");
                          ] );
                      ( "region",
                        Json.Obj
                          [
                            ("startLine", Json.Int (max 1 f.Report.line));
                            (* SARIF columns are 1-based; findings carry
                               compiler-style 0-based columns. *)
                            ("startColumn", Json.Int (f.Report.col + 1));
                          ] );
                    ] );
              ];
          ] );
    ]

let report findings =
  Json.Obj
    [
      ("$schema", Json.Str "https://json.schemastore.org/sarif-2.1.0.json");
      ("version", Json.Str "2.1.0");
      ( "runs",
        Json.List
          [
            Json.Obj
              [
                ( "tool",
                  Json.Obj
                    [
                      ( "driver",
                        Json.Obj
                          [
                            ("name", Json.Str "rv_lint");
                            ("informationUri", Json.Str "README.md#static-analysis");
                            ( "rules",
                              Json.List
                                (List.map rule_descriptor
                                   (Report.all_rules @ [ Report.Lint ])) );
                          ] );
                    ] );
                ( "originalUriBaseIds",
                  Json.Obj
                    [ ("SRCROOT", Json.Obj [ ("uri", Json.Str "file:///") ]) ] );
                ("results", Json.List (List.map result findings));
              ];
          ] );
    ]

let to_string findings = Json.to_string (report findings)

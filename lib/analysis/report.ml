(* The qcec-lint/v2 report: everything qcec-lint/v1 carried, plus a
   per-file "classifier" block with the scheme-applicability profile.
   The v1 writer in {!Diagnostic.report_to_json} is kept unchanged for
   downstream tooling pinned to it. *)

type entry =
  { file : string
  ; diagnostics : Diagnostic.t list
  ; profile : Classify.profile option
        (* [None] when the file failed to parse — there is no circuit to
           classify, only QA000 diagnostics *)
  }

let entry ?profile file diagnostics = { file; diagnostics; profile }

let classifier_json p =
  let admits s = Qcec_json.Bool (Classify.admits s p) in
  Qcec_json.Obj
    [ ("profile", Classify.to_json p)
    ; ( "admits"
      , Qcec_json.Obj
          [ ("unitary", admits Classify.Unitary_scheme)
          ; ("transformation", admits Classify.Transformation)
          ; ("extraction", admits Classify.Extraction)
          ] )
    ; ("route", Qcec_json.String (Classify.scheme_slug (Classify.route p)))
    ]

let to_json entries =
  let total =
    Diagnostic.summarize (List.concat_map (fun e -> e.diagnostics) entries)
  in
  Qcec_json.Obj
    [ ("schema", Qcec_json.String "qcec-lint/v2")
    ; ( "files"
      , Qcec_json.List
          (List.map
             (fun e ->
               Qcec_json.Obj
                 ([ ("file", Qcec_json.String e.file)
                  ; ( "diagnostics"
                    , Qcec_json.List
                        (List.map Diagnostic.to_json
                           (Diagnostic.sort e.diagnostics)) )
                  ; ( "summary"
                    , Diagnostic.summary_json
                        (Diagnostic.summarize e.diagnostics) )
                  ]
                 @
                 match e.profile with
                 | None -> [ ("classifier", Qcec_json.Null) ]
                 | Some p -> [ ("classifier", classifier_json p) ]))
             entries) )
    ; ("summary", Diagnostic.summary_json total)
    ]

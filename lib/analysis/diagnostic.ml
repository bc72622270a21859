type severity =
  | Error
  | Warning
  | Info

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 2 | Warning -> 1 | Info -> 0

type span =
  { file : string option
  ; line : int option
  ; op_index : int option
  }

let no_span = { file = None; line = None; op_index = None }

type t =
  { code : string
  ; rule : string
  ; severity : severity
  ; message : string
  ; span : span
  }

let make ?file ?line ?op_index ~code ~rule ~severity message =
  { code; rule; severity; message; span = { file; line; op_index } }

let pp ppf d =
  (match (d.span.file, d.span.line) with
   | Some f, Some l -> Fmt.pf ppf "%s:%d: " f l
   | Some f, None -> Fmt.pf ppf "%s: " f
   | None, Some l -> Fmt.pf ppf "line %d: " l
   | None, None -> ());
  Fmt.pf ppf "%s %s [%s]: %s" (severity_label d.severity) d.code d.rule d.message;
  match d.span.op_index with
  | Some i -> Fmt.pf ppf " (op %d)" i
  | None -> ()

let to_string d = Fmt.str "%a" pp d

type summary =
  { errors : int
  ; warnings : int
  ; infos : int
  }

let summarize ds =
  List.fold_left
    (fun acc d ->
      match d.severity with
      | Error -> { acc with errors = acc.errors + 1 }
      | Warning -> { acc with warnings = acc.warnings + 1 }
      | Info -> { acc with infos = acc.infos + 1 })
    { errors = 0; warnings = 0; infos = 0 }
    ds

let has_errors ds = List.exists (fun d -> d.severity = Error) ds

(* Stable presentation order: program position first (whole-circuit findings
   without an op index come last), then by severity, then by code. *)
let sort ds =
  let key d =
    ( Option.value ~default:max_int d.span.op_index
    , -severity_rank d.severity
    , d.code
    , d.message )
  in
  List.stable_sort (fun a b -> compare (key a) (key b)) ds

(* -- qcec-lint/v1 ------------------------------------------------------ *)

let opt_int = function None -> Qcec_json.Null | Some i -> Qcec_json.Int i

let to_json d =
  Qcec_json.Obj
    [ ("code", Qcec_json.String d.code)
    ; ("rule", Qcec_json.String d.rule)
    ; ("severity", Qcec_json.String (severity_label d.severity))
    ; ("message", Qcec_json.String d.message)
    ; ("line", opt_int d.span.line)
    ; ("op_index", opt_int d.span.op_index)
    ]

let summary_json s =
  Qcec_json.Obj
    [ ("errors", Qcec_json.Int s.errors)
    ; ("warnings", Qcec_json.Int s.warnings)
    ; ("infos", Qcec_json.Int s.infos)
    ]

let report_to_json files =
  let total = summarize (List.concat_map snd files) in
  Qcec_json.Obj
    [ ("schema", Qcec_json.String "qcec-lint/v1")
    ; ( "files"
      , Qcec_json.List
          (List.map
             (fun (file, ds) ->
               Qcec_json.Obj
                 [ ("file", Qcec_json.String file)
                 ; ("diagnostics", Qcec_json.List (List.map to_json (sort ds)))
                 ; ("summary", summary_json (summarize ds))
                 ])
             files) )
    ; ("summary", summary_json total)
    ]

(* The circuit static analyzer: dataflow lint rules (one positive and one
   negative case per rule), the scheme-applicability classifier, located
   diagnostics from both parsers, the qcec-lint/v1 JSON schema, and the
   agreement properties between the static pre-check and the run-time
   behaviour of the transformation and the unitary-only strategies. *)

module Circ = Circuit.Circ
module Op = Circuit.Op
module Gates = Circuit.Gates
module A = Analysis

let codes diags = List.map (fun d -> d.A.Diagnostic.code) diags

let has code diags = List.mem code (codes diags)

let check_has msg code diags = Alcotest.(check bool) msg true (has code diags)

let check_not msg code diags = Alcotest.(check bool) msg false (has code diags)

let lint = A.lint

(* -- lint rules -------------------------------------------------------- *)

let test_unused_qubit () =
  let c =
    Circ.make ~name:"c" ~qubits:2 ~cbits:0 [ Op.apply Gates.H 0 ]
  in
  check_has "qubit 1 unused" "QA001" (lint c);
  (* a barrier is a layout hint, not a use *)
  let c =
    Circ.make ~name:"c" ~qubits:2 ~cbits:0
      [ Op.apply Gates.H 0; Op.Barrier [ 1 ] ]
  in
  check_has "barrier does not count as a use" "QA001" (lint c);
  let c =
    Circ.make ~name:"c" ~qubits:2 ~cbits:0
      [ Op.apply Gates.H 0; Op.apply Gates.X 1 ]
  in
  check_not "all qubits used" "QA001" (lint c)

let test_gate_after_measure () =
  let c =
    Circ.make ~name:"c" ~qubits:1 ~cbits:1
      [ Op.apply Gates.H 0
      ; Op.Measure { qubit = 0; cbit = 0 }
      ; Op.apply Gates.X 0
      ]
  in
  check_has "gate after final measure" "QA002" (lint c);
  (* an intervening reset excuses the gate *)
  let c =
    Circ.make ~name:"c" ~qubits:1 ~cbits:1
      [ Op.apply Gates.H 0
      ; Op.Measure { qubit = 0; cbit = 0 }
      ; Op.Reset 0
      ; Op.apply Gates.X 0
      ]
  in
  check_not "reset intervenes" "QA002" (lint c);
  (* a later measurement makes the earlier one non-final *)
  let c =
    Circ.make ~name:"c" ~qubits:1 ~cbits:2
      [ Op.Measure { qubit = 0; cbit = 0 }
      ; Op.apply Gates.X 0
      ; Op.Measure { qubit = 0; cbit = 1 }
      ]
  in
  check_not "gate between two measurements" "QA002" (lint c);
  (* a control commutes with the Z-basis measurement *)
  let c =
    Circ.make ~name:"c" ~qubits:2 ~cbits:1
      [ Op.apply Gates.H 0
      ; Op.Measure { qubit = 0; cbit = 0 }
      ; Op.controlled Gates.X ~control:0 ~target:1
      ]
  in
  check_not "control use after measure is fine" "QA002" (lint c)

let test_dead_write () =
  let c =
    Circ.make ~name:"c" ~qubits:2 ~cbits:1
      [ Op.Measure { qubit = 0; cbit = 0 }
      ; Op.Measure { qubit = 1; cbit = 0 }
      ]
  in
  check_has "overwrite without read" "QA003" (lint c);
  let c =
    Circ.make ~name:"c" ~qubits:2 ~cbits:1
      [ Op.Measure { qubit = 0; cbit = 0 }
      ; Op.if_bit ~bit:0 ~value:true (Op.apply Gates.X 1)
      ; Op.Measure { qubit = 1; cbit = 0 }
      ]
  in
  check_not "condition reads between the writes" "QA003" (lint c)

let test_cond_never_written () =
  let c =
    Circ.make ~name:"c" ~qubits:1 ~cbits:1
      [ Op.if_bit ~bit:0 ~value:true (Op.apply Gates.X 0) ]
  in
  let diags = lint c in
  check_has "condition on never-written bit" "QA004" diags;
  Alcotest.(check bool) "QA004 is an error" true (A.Diagnostic.has_errors diags);
  (* the write may come later in the program: QA004 is a whole-circuit
     property, unlike the run-time read-before-write of the transform *)
  let c =
    Circ.make ~name:"c" ~qubits:2 ~cbits:1
      [ Op.Measure { qubit = 0; cbit = 0 }
      ; Op.if_bit ~bit:0 ~value:true (Op.apply Gates.X 1)
      ]
  in
  check_not "bit is written" "QA004" (lint c)

let test_redundant_reset () =
  let c = Circ.make ~name:"c" ~qubits:1 ~cbits:0 [ Op.Reset 0 ] in
  check_has "reset of |0>" "QA005" (lint c);
  let c =
    Circ.make ~name:"c" ~qubits:1 ~cbits:0 [ Op.apply Gates.H 0; Op.Reset 0 ]
  in
  check_not "reset after a gate" "QA005" (lint c)

let test_overlapping_controls () =
  (* unreachable through the validating [Circ.make] *)
  let c =
    Circ.make_unchecked ~name:"c" ~qubits:2 ~cbits:0
      [ Op.apply ~controls:[ { Op.cq = 0; pos = true } ] Gates.X 0 ]
  in
  check_has "self-controlled gate" "QA006" (lint c);
  let c =
    Circ.make_unchecked ~name:"c" ~qubits:2 ~cbits:0 [ Op.Swap (1, 1) ]
  in
  check_has "self-swap" "QA006" (lint c);
  let c =
    Circ.make_unchecked ~name:"c" ~qubits:3 ~cbits:0
      [ Op.apply
          ~controls:[ { Op.cq = 1; pos = true }; { Op.cq = 1; pos = false } ]
          Gates.X 0
      ]
  in
  check_has "duplicate control" "QA006" (lint c);
  let c =
    Circ.make ~name:"c" ~qubits:2 ~cbits:0
      [ Op.controlled Gates.X ~control:0 ~target:1 ]
  in
  check_not "proper controlled gate" "QA006" (lint c)

let test_out_of_range () =
  let c =
    Circ.make_unchecked ~name:"c" ~qubits:2 ~cbits:1
      [ Op.apply Gates.H 5 ]
  in
  check_has "qubit out of range" "QA007" (lint c);
  let c =
    Circ.make_unchecked ~name:"c" ~qubits:2 ~cbits:1
      [ Op.Measure { qubit = 0; cbit = 3 } ]
  in
  check_has "cbit out of range" "QA007" (lint c);
  let c =
    Circ.make ~name:"c" ~qubits:2 ~cbits:1
      [ Op.Measure { qubit = 0; cbit = 0 } ]
  in
  check_not "in range" "QA007" (lint c)

let test_parse_error_diag () =
  let d = A.Lint.of_parse_error ~file:"bad.qasm" ~line:7 "unexpected token" in
  Alcotest.(check string) "code" "QA000" d.A.Diagnostic.code;
  Alcotest.(check (option int)) "line" (Some 7) d.A.Diagnostic.span.A.Diagnostic.line;
  Alcotest.(check bool) "is an error" true (A.Diagnostic.has_errors [ d ])

(* diagnostics carry the source line of the offending op when the circuit
   came from a located parse *)
let test_located_diagnostics () =
  let src =
    "OPENQASM 2.0;\n\
     qreg q[1];\n\
     creg c[1];\n\
     h q[0];\n\
     measure q[0] -> c[0];\n\
     x q[0];\n"
  in
  let c, lines = Circuit.Qasm_parser.parse_located ~name:"t" src in
  Alcotest.(check (array int)) "per-op lines" [| 4; 5; 6 |] lines;
  let diags = A.lint ~file:"t.qasm" ~lines c in
  let d =
    List.find (fun d -> d.A.Diagnostic.code = "QA002") diags
  in
  Alcotest.(check (option int)) "line of the offending gate" (Some 6)
    d.A.Diagnostic.span.A.Diagnostic.line;
  Alcotest.(check (option string)) "file attached" (Some "t.qasm")
    d.A.Diagnostic.span.A.Diagnostic.file

let test_located_qasm3 () =
  let src =
    "OPENQASM 3.0;\n\
     qubit[2] q;\n\
     bit[1] c;\n\
     h q[0];\n\
     c[0] = measure q[0];\n\
     if (c[0] == 1) {\n\
     \  x q[1];\n\
     \  z q[1];\n\
     }\n"
  in
  let _, lines = Circuit.Qasm3_parser.parse_located ~name:"t" src in
  Alcotest.(check (array int)) "if-block ops keep their own lines"
    [| 4; 5; 7; 8 |] lines;
  (* located parse errors carry the failing line *)
  match Circuit.Qasm3_parser.parse_located ~name:"t" "OPENQASM 3.0;\nqubit[1] q;\nfrobnicate;\n" with
  | exception Circuit.Qasm_parser.Parse_error (_, line) ->
    Alcotest.(check int) "error line" 3 line
  | _ -> Alcotest.fail "expected a parse error"

(* -- JSON -------------------------------------------------------------- *)

let test_lint_json_roundtrip () =
  let c =
    Circ.make ~name:"c" ~qubits:2 ~cbits:1
      [ Op.apply Gates.H 0
      ; Op.Measure { qubit = 0; cbit = 0 }
      ; Op.apply Gates.X 0
      ]
  in
  let doc = A.Diagnostic.report_to_json [ ("c.qasm", lint c) ] in
  let str = Qcec_json.to_string ~pretty:true doc in
  let back = Qcec_json.of_string str in
  Alcotest.(check bool) "round trips" true (Qcec_json.equal doc back);
  (match Qcec_json.member "schema" back with
   | Some (Qcec_json.String s) -> Alcotest.(check string) "schema" "qcec-lint/v1" s
   | _ -> Alcotest.fail "missing schema field");
  (match Qcec_json.member "summary" back with
   | Some summary ->
     (match Qcec_json.member "warnings" summary with
      | Some (Qcec_json.Int n) ->
        Alcotest.(check bool) "counted the QA002/QA001 warnings" true (n >= 1)
      | _ -> Alcotest.fail "missing warnings count")
   | None -> Alcotest.fail "missing summary");
  (* every emitted code exists in the catalogue *)
  List.iter
    (fun d ->
      match A.Rules.find d.A.Diagnostic.code with
      | Some meta ->
        Alcotest.(check string) "slug matches" meta.A.Rules.slug d.A.Diagnostic.rule
      | None -> Alcotest.failf "unknown code %s" d.A.Diagnostic.code)
    (lint c)

(* -- classifier -------------------------------------------------------- *)

let test_classify_kinds () =
  let unitary =
    Circ.make ~name:"u" ~qubits:2 ~cbits:0
      [ Op.apply Gates.H 0; Op.controlled Gates.X ~control:0 ~target:1 ]
  in
  let p = A.classify unitary in
  Alcotest.(check string) "unitary" "unitary" (A.Classify.kind_name p.A.Classify.kind);
  Alcotest.(check bool) "unitary admits unitary scheme" true
    (A.Classify.admits A.Classify.Unitary_scheme p);

  let terminal =
    Circ.make ~name:"t" ~qubits:1 ~cbits:1
      [ Op.apply Gates.H 0; Op.Measure { qubit = 0; cbit = 0 } ]
  in
  let p = A.classify terminal in
  Alcotest.(check string) "measure-terminal" "measure-terminal"
    (A.Classify.kind_name p.A.Classify.kind);
  Alcotest.(check bool) "terminal admits unitary scheme" true
    (A.Classify.admits A.Classify.Unitary_scheme p);

  let dynamic = Algorithms.Bv.dynamic (Algorithms.Bv.hidden_string ~seed:1 4) in
  let p = A.classify dynamic in
  Alcotest.(check string) "dynamic" "dynamic" (A.Classify.kind_name p.A.Classify.kind);
  Alcotest.(check bool) "dynamic rejected by unitary scheme" false
    (A.Classify.admits A.Classify.Unitary_scheme p);
  Alcotest.(check bool) "dynamic BV is transformable" true (A.Classify.transformable p);
  Alcotest.(check bool) "routes to the transformation" true
    (A.Classify.route p = A.Classify.Transformation)

let test_classify_untransformable () =
  (* a gate drives the measured qubit with no reset: deferral must reject,
     and so must the static mirror; extraction remains the only route *)
  let c =
    Circ.make ~name:"c" ~qubits:2 ~cbits:2
      [ Op.apply Gates.H 0
      ; Op.Measure { qubit = 0; cbit = 0 }
      ; Op.apply Gates.X 0
      ; Op.Measure { qubit = 0; cbit = 1 }
      ]
  in
  let p = A.classify c in
  Alcotest.(check bool) "dynamic" true (p.A.Classify.kind = A.Classify.Dynamic);
  Alcotest.(check bool) "not transformable" false (A.Classify.transformable p);
  Alcotest.(check bool) "routes to extraction" true
    (A.Classify.route p = A.Classify.Extraction);
  match A.Classify.scheme_rejection ~scheme:A.Classify.Transformation p with
  | Some d -> Alcotest.(check string) "QA008" "QA008" d.A.Diagnostic.code
  | None -> Alcotest.fail "expected a transformation rejection"

let test_scheme_rejection_located () =
  let dynamic = Algorithms.Bv.dynamic (Algorithms.Bv.hidden_string ~seed:3 4) in
  let p = A.classify dynamic in
  let lines = Array.init (Circ.total_ops dynamic) (fun i -> 100 + i) in
  match
    A.Classify.scheme_rejection ~file:"bv.qasm" ~lines
      ~scheme:A.Classify.Unitary_scheme p
  with
  | Some d ->
    Alcotest.(check string) "QA008" "QA008" d.A.Diagnostic.code;
    let i =
      match p.A.Classify.first_blocker with
      | Some (i, _) -> i
      | None -> Alcotest.fail "dynamic BV has a blocker"
    in
    Alcotest.(check (option int)) "anchored at the blocker" (Some i)
      d.A.Diagnostic.span.A.Diagnostic.op_index;
    Alcotest.(check (option int)) "line resolved through the array"
      (Some (100 + i)) d.A.Diagnostic.span.A.Diagnostic.line
  | None -> Alcotest.fail "expected a rejection"

(* -- verify pre-flight ------------------------------------------------- *)

let test_verify_reject () =
  let pair = Algorithms.Bv.make (Algorithms.Bv.hidden_string ~seed:2 4) in
  let static = pair.Algorithms.Pair.static_circuit in
  let dyn = pair.Algorithms.Pair.dynamic_circuit in
  (match Qcec.Verify.functional ~on_dynamic:`Reject static dyn with
   | exception Qcec.Verify.Rejected d ->
     Alcotest.(check string) "QA008" "QA008" d.A.Diagnostic.code
   | _ -> Alcotest.fail "expected rejection of the dynamic circuit");
  (* the default keeps transforming *)
  let r =
    Qcec.Verify.functional ~perm:pair.Algorithms.Pair.dyn_to_static static dyn
  in
  Alcotest.(check bool) "transform path still works" true r.Qcec.Verify.equivalent;
  (* static pairs pass the pre-flight untouched *)
  let r = Qcec.Verify.functional ~on_dynamic:`Reject static static in
  Alcotest.(check bool) "static pair accepted under `Reject" true
    r.Qcec.Verify.equivalent

(* -- QASM fixtures ------------------------------------------------------ *)

let lint_fixture name =
  let path = Filename.concat "fixtures" name in
  let c, lines = Circuit.Qasm3_parser.parse_any_file_located path in
  A.lint ~file:path ~lines c

let test_fixtures () =
  Alcotest.(check (list string)) "clean GHZ" [] (codes (lint_fixture "clean_ghz.qasm"));
  let teleport = lint_fixture "dynamic_teleport.qasm" in
  Alcotest.(check (list string)) "teleport is clean" [] (codes teleport);
  let warn = lint_fixture "warn_gate_after_measure.qasm" in
  check_has "QA001" "QA001" warn;
  check_has "QA002" "QA002" warn;
  check_has "QA003" "QA003" warn;
  check_has "QA005" "QA005" warn;
  Alcotest.(check bool) "no error-severity findings" false
    (A.Diagnostic.has_errors warn)

(* -- agreement properties ---------------------------------------------- *)

let arb_dynamic =
  QCheck.make
    ~print:(fun seed ->
      Fmt.str "%a"
        Circ.pp
        (Algorithms.Random_circuit.dynamic ~seed ~qubits:3 ~cbits:2 ~ops:12))
    QCheck.Gen.(0 -- 10_000)

(* the transformed output of any transformable dynamic circuit is
   admissible for unitary-only checking and clean of the dynamic-dataflow
   errors *)
let prop_transform_output_admissible =
  QCheck.Test.make ~count:60 ~name:"Transform output admits unitary schemes"
    arb_dynamic (fun seed ->
      let c = Algorithms.Random_circuit.dynamic ~seed ~qubits:3 ~cbits:2 ~ops:12 in
      let p = A.classify c in
      if not (A.Classify.transformable p) then QCheck.assume_fail ()
      else begin
        let out = Transform.Dynamic.transform c in
        let p' = A.classify out in
        let diags = A.lint out in
        p'.A.Classify.kind <> A.Classify.Dynamic
        && A.Classify.admits A.Classify.Unitary_scheme p'
        && (not (has "QA002" diags))
        && (not (has "QA003" diags))
        && not (has "QA004" diags)
      end)

(* the static transform pre-check agrees with the transformation itself *)
let prop_transform_precheck_agrees =
  QCheck.Test.make ~count:100 ~name:"transformable iff the transform succeeds"
    arb_dynamic (fun seed ->
      let c = Algorithms.Random_circuit.dynamic ~seed ~qubits:3 ~cbits:2 ~ops:12 in
      let p = A.classify c in
      let succeeded =
        match Transform.Dynamic.transform c with
        | _ -> true
        | exception Invalid_argument _ -> false
      in
      A.Classify.transformable p = succeeded)

(* first_blocker predicts exactly when the unitary-only strategies raise
   Non_unitary at run time *)
let prop_first_blocker_agrees =
  QCheck.Test.make ~count:40 ~name:"first_blocker iff Strategy.Non_unitary"
    arb_dynamic (fun seed ->
      let c = Algorithms.Random_circuit.dynamic ~seed ~qubits:3 ~cbits:2 ~ops:10 in
      let p = A.classify c in
      let pkg = Dd.Pkg.create () in
      let raised =
        match Qcec.Strategy.check pkg Qcec.Strategy.Proportional c c with
        | _ -> false
        | exception Qcec.Strategy.Non_unitary _ -> true
      in
      (p.A.Classify.first_blocker <> None) = raised)

let suite =
  [ Alcotest.test_case "QA001 unused qubit" `Quick test_unused_qubit
  ; Alcotest.test_case "QA002 gate after final measure" `Quick
      test_gate_after_measure
  ; Alcotest.test_case "QA003 dead classical write" `Quick test_dead_write
  ; Alcotest.test_case "QA004 condition never written" `Quick
      test_cond_never_written
  ; Alcotest.test_case "QA005 redundant reset" `Quick test_redundant_reset
  ; Alcotest.test_case "QA006 overlapping controls" `Quick
      test_overlapping_controls
  ; Alcotest.test_case "QA007 operand out of range" `Quick test_out_of_range
  ; Alcotest.test_case "QA000 parse error diagnostic" `Quick
      test_parse_error_diag
  ; Alcotest.test_case "located diagnostics (QASM 2)" `Quick
      test_located_diagnostics
  ; Alcotest.test_case "located parse (QASM 3)" `Quick test_located_qasm3
  ; Alcotest.test_case "qcec-lint/v1 JSON" `Quick test_lint_json_roundtrip
  ; Alcotest.test_case "classifier kinds and routing" `Quick test_classify_kinds
  ; Alcotest.test_case "untransformable circuits" `Quick
      test_classify_untransformable
  ; Alcotest.test_case "located scheme rejection" `Quick
      test_scheme_rejection_located
  ; Alcotest.test_case "verify pre-flight rejection" `Quick test_verify_reject
  ; Alcotest.test_case "QASM fixtures" `Quick test_fixtures
  ; QCheck_alcotest.to_alcotest prop_transform_output_admissible
  ; QCheck_alcotest.to_alcotest prop_transform_precheck_agrees
  ; QCheck_alcotest.to_alcotest prop_first_blocker_agrees
  ]

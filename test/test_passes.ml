(* The abstract-interpretation passes behind the cost-aware scheduler: the
   Clifford/stabilizer domain, the qubit-interaction graph, the
   cancellation/commutation scan (and the QA009/QA010 lint rules it
   feeds), the cost profile that folds them together, and the
   qcec-lint/v2 / qcec-analysis/v1 JSON surfaces. *)

module Circ = Circuit.Circ
module Op = Circuit.Op
module Gates = Circuit.Gates
module A = Analysis

let pi = Float.pi

let codes diags = List.map (fun d -> d.A.Diagnostic.code) diags

let has code diags = List.mem code (codes diags)

let check_has msg code diags = Alcotest.(check bool) msg true (has code diags)

let check_not msg code diags = Alcotest.(check bool) msg false (has code diags)

(* -- Clifford domain ---------------------------------------------------- *)

let test_clifford_gates () =
  List.iter
    (fun (g, expect) ->
      Alcotest.(check bool) (Gates.name g) expect (A.Clifford.is_clifford_gate g))
    [ (Gates.H, true)
    ; (Gates.S, true)
    ; (Gates.Sdg, true)
    ; (Gates.X, true)
    ; (Gates.T, false)
    ; (Gates.Tdg, false)
    ; (Gates.RZ (pi /. 2.0), true)
    ; (Gates.RZ (3.0 *. pi), true)
    ; (Gates.RZ 0.3, false)
    ; (Gates.RX pi, true)
    ; (Gates.P (pi /. 2.0), true)
    ; (Gates.P (pi /. 4.0), false)
    ]

let test_clifford_ops () =
  let clifford =
    [ Op.apply Gates.H 0
    ; Op.controlled Gates.X ~control:0 ~target:1
    ; Op.controlled Gates.Z ~control:1 ~target:0
    ; Op.Swap (0, 1)
    ; Op.Measure { qubit = 0; cbit = 0 }
    ; Op.Reset 0
    ; Op.Barrier [ 0; 1 ]
    ; Op.if_bit ~bit:0 ~value:true (Op.apply Gates.X 1)
    ]
  in
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Fmt.str "%a in fragment" Op.pp op)
        true (A.Clifford.is_clifford_op op))
    clifford;
  (* a controlled non-Pauli rotation and a doubly-controlled gate are out *)
  Alcotest.(check bool) "controlled T is out" false
    (A.Clifford.is_clifford_op (Op.controlled Gates.T ~control:0 ~target:1));
  Alcotest.(check bool) "Toffoli is out" false
    (A.Clifford.is_clifford_op
       (Op.apply
          ~controls:[ { Op.cq = 0; pos = true }; { Op.cq = 1; pos = true } ]
          Gates.X 2))

let test_clifford_scan () =
  let c =
    Circ.make ~name:"c" ~qubits:2 ~cbits:0
      [ Op.apply Gates.H 0
      ; Op.controlled Gates.X ~control:0 ~target:1
      ; Op.apply Gates.T 0
      ; Op.apply Gates.S 1
      ]
  in
  let r = A.Clifford.scan c in
  Alcotest.(check int) "prefix" 2 r.A.Clifford.clifford_prefix;
  Alcotest.(check (option int)) "first non-Clifford" (Some 2)
    r.A.Clifford.first_non_clifford;
  Alcotest.(check int) "clifford ops" 3 r.A.Clifford.clifford_ops;
  Alcotest.(check int) "non-clifford ops" 1 r.A.Clifford.non_clifford_ops;
  Alcotest.(check bool) "not all clifford" false r.A.Clifford.all_clifford;
  let ghz = Circ.strip_measurements (Algorithms.Ghz.static 5) in
  Alcotest.(check bool) "GHZ is Clifford" true
    (A.Clifford.scan ghz).A.Clifford.all_clifford

(* stabilizer-simulable random circuits never leave the abstract domain:
   the pass is sound on exactly the fragment the tableau backend accepts *)
let prop_clifford_never_flags =
  QCheck.Test.make ~count:100
    ~name:"Clifford pass accepts every stabilizer-simulable circuit"
    QCheck.Gen.(0 -- 10_000 |> QCheck.make ~print:string_of_int)
    (fun seed ->
      let c =
        Algorithms.Random_circuit.clifford_dynamic ~seed ~qubits:4 ~cbits:2
          ~ops:20
      in
      let r = A.Clifford.scan c in
      r.A.Clifford.all_clifford
      && r.A.Clifford.non_clifford_ops = 0
      && Array.for_all Fun.id r.A.Clifford.per_op)

(* -- interaction graph -------------------------------------------------- *)

let test_interact_components () =
  (* two disjoint entangled pairs plus an idle qubit *)
  let c =
    Circ.make ~name:"c" ~qubits:5 ~cbits:0
      [ Op.controlled Gates.X ~control:0 ~target:1
      ; Op.controlled Gates.X ~control:2 ~target:3
      ; Op.apply Gates.H 4
      ]
  in
  let g = A.Interact.of_circ c in
  Alcotest.(check int) "three components" 3 g.A.Interact.num_components;
  Alcotest.(check int) "two entangling ops" 2 g.A.Interact.entangling_ops;
  Alcotest.(check bool) "0 and 1 coupled" true
    (g.A.Interact.components.(0) = g.A.Interact.components.(1));
  Alcotest.(check bool) "1 and 2 separate" false
    (g.A.Interact.components.(1) = g.A.Interact.components.(2))

let test_interact_cutwidth () =
  (* a CX chain: the greedy arrangement achieves cut-width 1 *)
  let n = 6 in
  let chain =
    List.init (n - 1) (fun i -> Op.controlled Gates.X ~control:i ~target:(i + 1))
  in
  let g = A.Interact.of_circ (Circ.make ~name:"chain" ~qubits:n ~cbits:0 chain) in
  Alcotest.(check int) "one component" 1 g.A.Interact.num_components;
  Alcotest.(check int) "chain cut-width" 1 g.A.Interact.cutwidth;
  Alcotest.(check int) "order is a permutation" n
    (List.length
       (List.sort_uniq compare (Array.to_list g.A.Interact.order)))

(* -- cancellation scan -------------------------------------------------- *)

let find_kind p r = List.exists p r.A.Cancel.findings

let test_cancel_pairs () =
  let c =
    Circ.make ~name:"c" ~qubits:2 ~cbits:0
      [ Op.apply Gates.H 0; Op.apply Gates.H 0 ]
  in
  let r = A.Cancel.scan c in
  Alcotest.(check bool) "H;H self-inverse" true
    (find_kind
       (function
         | A.Cancel.Self_inverse_pair { first = 0; second = 1; _ } -> true
         | _ -> false)
       r);
  Alcotest.(check bool) "both halves flagged" true
    (r.A.Cancel.cancels.(0) && r.A.Cancel.cancels.(1));
  (* an intervening op on the same qubit breaks adjacency *)
  let c =
    Circ.make ~name:"c" ~qubits:1 ~cbits:0
      [ Op.apply Gates.H 0; Op.apply Gates.X 0; Op.apply Gates.H 0 ]
  in
  let r = A.Cancel.scan c in
  Alcotest.(check bool) "H;X;H does not cancel" false
    (find_kind (function A.Cancel.Self_inverse_pair _ -> true | _ -> false) r);
  (* S;Sdg cancels but is an adjoint pair, not self-inverse *)
  let c =
    Circ.make ~name:"c" ~qubits:1 ~cbits:0
      [ Op.apply Gates.S 0; Op.apply Gates.Sdg 0 ]
  in
  let r = A.Cancel.scan c in
  Alcotest.(check bool) "S;Sdg adjoint pair" true
    (find_kind (function A.Cancel.Adjoint_pair _ -> true | _ -> false) r);
  Alcotest.(check bool) "S;Sdg not self-inverse" false
    (find_kind (function A.Cancel.Self_inverse_pair _ -> true | _ -> false) r);
  (* CX;CX on the same wires cancels; on crossed wires it does not *)
  let cx c t = Op.controlled Gates.X ~control:c ~target:t in
  let r = A.Cancel.scan (Circ.make ~name:"c" ~qubits:2 ~cbits:0 [ cx 0 1; cx 0 1 ]) in
  Alcotest.(check bool) "CX;CX cancels" true
    (find_kind (function A.Cancel.Self_inverse_pair _ -> true | _ -> false) r);
  let r = A.Cancel.scan (Circ.make ~name:"c" ~qubits:2 ~cbits:0 [ cx 0 1; cx 1 0 ]) in
  Alcotest.(check bool) "crossed CX does not cancel" false
    (find_kind (function A.Cancel.Self_inverse_pair _ -> true | _ -> false) r)

let test_cancel_rotations () =
  let c =
    Circ.make ~name:"c" ~qubits:1 ~cbits:0
      [ Op.apply (Gates.RZ 0.3) 0; Op.apply (Gates.RZ 0.4) 0 ]
  in
  let r = A.Cancel.scan c in
  Alcotest.(check bool) "same-axis rotations merge" true
    (find_kind
       (function
         | A.Cancel.Mergeable_rotation { first = 0; second = 1; _ } -> true
         | _ -> false)
       r);
  let c =
    Circ.make ~name:"c" ~qubits:1 ~cbits:0
      [ Op.apply (Gates.RZ (4.0 *. pi)) 0; Op.apply (Gates.RX 0.3) 0 ]
  in
  let r = A.Cancel.scan c in
  Alcotest.(check bool) "rz(4pi) is a zero rotation" true
    (find_kind
       (function A.Cancel.Zero_rotation { op_index = 0; _ } -> true | _ -> false)
       r);
  Alcotest.(check bool) "rx(0.3) is not" false
    (find_kind
       (function A.Cancel.Zero_rotation { op_index = 1; _ } -> true | _ -> false)
       r)

let test_cancel_diagonal_runs () =
  let c =
    Circ.make ~name:"c" ~qubits:2 ~cbits:0
      [ Op.apply Gates.T 0
      ; Op.apply (Gates.RZ 0.5) 1
      ; Op.controlled (Gates.P 0.25) ~control:0 ~target:1
      ; Op.apply Gates.H 0
      ]
  in
  let r = A.Cancel.scan c in
  Alcotest.(check bool) "diag flags" true
    (r.A.Cancel.diagonal.(0) && r.A.Cancel.diagonal.(1) && r.A.Cancel.diagonal.(2));
  Alcotest.(check bool) "H not diagonal" false r.A.Cancel.diagonal.(3);
  Alcotest.(check bool) "run of three" true
    (find_kind
       (function
         | A.Cancel.Diagonal_run { start = 0; length = 3 } -> true | _ -> false)
       r)

(* -- QA009 / QA010 through the linter ----------------------------------- *)

let test_qa009 () =
  let c =
    Circ.make ~name:"c" ~qubits:2 ~cbits:0
      [ Op.apply Gates.H 0
      ; Op.apply Gates.H 0
      ; Op.apply Gates.X 1
      ]
  in
  let diags = A.lint c in
  check_has "adjacent H;H" "QA009" diags;
  let d = List.find (fun d -> d.A.Diagnostic.code = "QA009") diags in
  Alcotest.(check (option int)) "anchored at the second op" (Some 1)
    d.A.Diagnostic.span.A.Diagnostic.op_index;
  (* adjoint pairs cancel too but are not the QA009 pattern *)
  let c =
    Circ.make ~name:"c" ~qubits:1 ~cbits:0
      [ Op.apply Gates.T 0; Op.apply Gates.Tdg 0 ]
  in
  check_not "T;Tdg is not QA009" "QA009" (A.lint c);
  let c =
    Circ.make ~name:"c" ~qubits:1 ~cbits:0
      [ Op.apply Gates.H 0; Op.apply Gates.S 0; Op.apply Gates.H 0 ]
  in
  check_not "no adjacent pair" "QA009" (A.lint c)

let test_qa010 () =
  let c =
    Circ.make ~name:"c" ~qubits:1 ~cbits:0 [ Op.apply (Gates.RZ (2.0 *. pi)) 0 ]
  in
  check_has "rz(2pi)" "QA010" (A.lint c);
  let c = Circ.make ~name:"c" ~qubits:1 ~cbits:0 [ Op.apply (Gates.RY 0.7) 0 ] in
  check_not "rz(0.7)" "QA010" (A.lint c);
  (* located: the rule catalogue knows both new codes *)
  List.iter
    (fun code ->
      match A.Rules.find code with
      | Some meta ->
        Alcotest.(check bool)
          (code ^ " is a warning")
          true
          (meta.A.Rules.severity = A.Diagnostic.Warning)
      | None -> Alcotest.failf "missing %s in the catalogue" code)
    [ "QA009"; "QA010" ]

(* -- cost profile ------------------------------------------------------- *)

let test_cost_profile () =
  let c =
    Circ.make ~name:"c" ~qubits:2 ~cbits:0
      [ Op.apply Gates.H 0
      ; Op.controlled Gates.X ~control:0 ~target:1
      ; Op.apply Gates.T 0
      ; Op.Barrier [ 0; 1 ]
      ]
  in
  let p = A.Cost.profile c in
  Alcotest.(check int) "total ops" 4 p.A.Cost.total_ops;
  Alcotest.(check int) "cumulative length" 5 (Array.length p.A.Cost.cumulative);
  Alcotest.(check (float 1e-9)) "barrier weighs nothing" 0.0 p.A.Cost.weights.(3);
  Alcotest.(check bool) "entangling costs more than local Clifford" true
    (p.A.Cost.weights.(1) > p.A.Cost.weights.(0));
  Alcotest.(check bool) "non-Clifford beats Clifford" true
    (p.A.Cost.weights.(2) > p.A.Cost.weights.(0));
  (* the curve is the normalized cumulative cost: monotone, 0 to 1 *)
  Alcotest.(check (float 1e-9)) "cumulative starts at 0" 0.0 p.A.Cost.cumulative.(0);
  Alcotest.(check (float 1e-9)) "cumulative ends at total" p.A.Cost.total
    p.A.Cost.cumulative.(4);
  let mono = ref true in
  Array.iteri
    (fun i v -> if i > 0 && v < p.A.Cost.cumulative.(i - 1) then mono := false)
    p.A.Cost.cumulative;
  Alcotest.(check bool) "cumulative is monotone" true !mono

let test_cost_recommend () =
  (* identical circuits: curves coincide, proportional suffices *)
  let ghz = Circ.strip_measurements (Algorithms.Ghz.static 5) in
  let p = A.Cost.profile ghz in
  Alcotest.(check (float 1e-9)) "self-divergence" 0.0 (A.Cost.divergence p p);
  Alcotest.(check bool) "clifford pair stays proportional" true
    (A.Cost.recommend p p = A.Cost.Proportional_order);
  (* the QPE pair's realizations skew their cost mass: lookahead *)
  let pair = Algorithms.Qpe.make ~theta:(3.0 /. 16.0) ~bits:6 in
  let a = A.Cost.profile pair.Algorithms.Pair.static_circuit in
  let b = A.Cost.profile pair.Algorithms.Pair.dynamic_circuit in
  Alcotest.(check bool) "QPE pair diverges" true (A.Cost.divergence a b > 0.05);
  Alcotest.(check bool) "QPE routes to lookahead" true
    (A.Cost.recommend a b = A.Cost.Lookahead_order);
  Alcotest.(check bool) "classifier alias agrees" true
    (A.Classify.route_application a b = A.Cost.recommend a b)

(* -- JSON surfaces ------------------------------------------------------ *)

let member name j =
  match Qcec_json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S" name

let test_analysis_json () =
  let pair = Algorithms.Bv.make (Algorithms.Bv.hidden_string ~seed:5 6) in
  let j = A.Cost.to_json (A.Cost.profile pair.Algorithms.Pair.static_circuit) in
  let str = Qcec_json.to_string ~pretty:true j in
  Alcotest.(check bool) "round trips" true
    (Qcec_json.equal j (Qcec_json.of_string str));
  List.iter
    (fun f -> ignore (member f j))
    [ "num_qubits"; "total_ops"; "clifford"; "interaction"; "cancellation"; "cost" ];
  match member "total" (member "cost" j) with
  | Qcec_json.Float t -> Alcotest.(check bool) "positive total" true (t > 0.0)
  | _ -> Alcotest.fail "cost.total is not a number"

let test_lint_v2_json () =
  let c =
    Circ.make ~name:"c" ~qubits:1 ~cbits:0
      [ Op.apply Gates.H 0; Op.apply Gates.H 0 ]
  in
  let report =
    [ A.Report.entry ~profile:(A.classify c) "c.qasm" (A.lint c)
    ; A.Report.entry "broken.qasm"
        [ A.Lint.of_parse_error ~file:"broken.qasm" ~line:1 "nope" ]
    ]
  in
  let j = A.Report.to_json report in
  (match member "schema" j with
   | Qcec_json.String s -> Alcotest.(check string) "schema" "qcec-lint/v2" s
   | _ -> Alcotest.fail "schema is not a string");
  match member "files" j with
  | Qcec_json.List [ ok; broken ] ->
    (* v1 fields survive untouched next to the new classifier block *)
    ignore (member "diagnostics" ok);
    let classifier = member "classifier" ok in
    (match member "route" classifier with
     | Qcec_json.String s -> Alcotest.(check string) "routed" "unitary" s
     | _ -> Alcotest.fail "route is not a string");
    (match member "admits" classifier with
     | Qcec_json.Obj kvs ->
       Alcotest.(check (list string)) "admits keys"
         [ "unitary"; "transformation"; "extraction" ]
         (List.map fst kvs)
     | _ -> Alcotest.fail "admits is not an object");
    (match member "classifier" broken with
     | Qcec_json.Null -> ()
     | _ -> Alcotest.fail "unparsed file must carry a null classifier")
  | _ -> Alcotest.fail "files is not a 2-list"

let suite =
  [ Alcotest.test_case "Clifford gate fragment" `Quick test_clifford_gates
  ; Alcotest.test_case "Clifford op fragment" `Quick test_clifford_ops
  ; Alcotest.test_case "Clifford prefix scan" `Quick test_clifford_scan
  ; QCheck_alcotest.to_alcotest prop_clifford_never_flags
  ; Alcotest.test_case "interaction components" `Quick test_interact_components
  ; Alcotest.test_case "interaction cut-width" `Quick test_interact_cutwidth
  ; Alcotest.test_case "cancelling pairs" `Quick test_cancel_pairs
  ; Alcotest.test_case "rotation findings" `Quick test_cancel_rotations
  ; Alcotest.test_case "diagonal runs" `Quick test_cancel_diagonal_runs
  ; Alcotest.test_case "QA009 adjacent self-inverse pair" `Quick test_qa009
  ; Alcotest.test_case "QA010 zero-angle rotation" `Quick test_qa010
  ; Alcotest.test_case "cost profile" `Quick test_cost_profile
  ; Alcotest.test_case "scheme recommendation" `Quick test_cost_recommend
  ; Alcotest.test_case "qcec-analysis/v1 JSON" `Quick test_analysis_json
  ; Alcotest.test_case "qcec-lint/v2 JSON" `Quick test_lint_v2_json
  ]

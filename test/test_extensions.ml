(* Tests for the extension features: automatic measurement-based wire
   alignment, the lookahead strategy, multi-controlled decomposition, and
   noisy density simulation. *)

module Op = Circuit.Op
module Circ = Circuit.Circ
module Gates = Circuit.Gates
module Cx = Cxnum.Cx

(* -- automatic alignment ------------------------------------------------- *)

let test_auto_align_families () =
  (* the pairs verify WITHOUT the hand-written permutation *)
  let check name (pair : Algorithms.Pair.t) =
    let r =
      Qcec.Verify.functional pair.Algorithms.Pair.static_circuit
        pair.Algorithms.Pair.dynamic_circuit
    in
    Alcotest.(check bool) (name ^ " auto-aligned") true r.Qcec.Verify.equivalent
  in
  check "BV" (Algorithms.Bv.make (Algorithms.Bv.hidden_string ~seed:3 6));
  check "QFT" (Algorithms.Qft.make 6);
  check "QPE" (Algorithms.Qpe.paper_example ());
  check "DJ" (Algorithms.Deutsch_jozsa.make (Algorithms.Deutsch_jozsa.random_balanced ~seed:1 5) 5)

let test_auto_align_matches_known_perm () =
  let pair = Algorithms.Qpe.paper_example () in
  let static = pair.Algorithms.Pair.static_circuit in
  let transformed =
    Transform.Dynamic.transform pair.Algorithms.Pair.dynamic_circuit
  in
  match Qcec.Verify.measurement_alignment static transformed with
  | None -> Alcotest.fail "expected an alignment"
  | Some perm ->
    Alcotest.(check (array int)) "inferred = generator's"
      pair.Algorithms.Pair.dyn_to_static perm

let test_auto_align_disabled () =
  let pair = Algorithms.Qft.make 4 in
  let r =
    Qcec.Verify.functional ~auto_align:false pair.Algorithms.Pair.static_circuit
      pair.Algorithms.Pair.dynamic_circuit
  in
  (* without alignment the wires are reversed, so they must NOT match *)
  Alcotest.(check bool) "misaligned circuits differ" false r.Qcec.Verify.equivalent

let test_alignment_rejects_mismatch () =
  let a = Algorithms.Ghz.static 3 in
  let b =
    (* same size but measuring fewer bits *)
    Circ.make ~name:"b" ~qubits:3 ~cbits:3
      [ Op.apply Gates.H 0; Op.Measure { qubit = 0; cbit = 0 } ]
  in
  Alcotest.(check bool) "no alignment for mismatched measurements" true
    (Qcec.Verify.measurement_alignment a b = None)

(* -- lookahead strategy --------------------------------------------------- *)

let test_lookahead_positive_negative () =
  let pair = Algorithms.Qpe.make_textbook ~theta:0.3 ~bits:5 in
  let r =
    Qcec.Verify.functional ~strategy:Qcec.Strategy.Lookahead
      pair.Algorithms.Pair.static_circuit pair.Algorithms.Pair.dynamic_circuit
  in
  Alcotest.(check bool) "lookahead proves equivalence" true r.Qcec.Verify.equivalent;
  let broken =
    let ops = Op.apply (Gates.P 0.2) 0 :: pair.Algorithms.Pair.static_circuit.Circ.ops in
    { pair.Algorithms.Pair.static_circuit with Circ.ops = ops }
  in
  let r =
    Qcec.Verify.functional ~strategy:Qcec.Strategy.Lookahead broken
      pair.Algorithms.Pair.dynamic_circuit
  in
  Alcotest.(check bool) "lookahead catches difference" false r.Qcec.Verify.equivalent

let prop_all_strategies_agree =
  (* The exact strategies must agree with the ground truth in both
     directions.  Simulative checking is one-sided: a fidelity mismatch
     proves non-equivalence, but agreement on finitely many stimuli cannot
     prove equivalence (the mutation may act trivially on the sampled
     states), so it is only required to accept equal circuits. *)
  QCheck.Test.make ~name:"strategies agree on random circuits" ~count:15
    QCheck.(pair (int_range 0 100000) bool)
    (fun (seed, mutate) ->
      let c = Algorithms.Random_circuit.unitary ~seed ~qubits:3 ~gates:14 in
      let c' =
        if mutate then begin
          let ops = c.Circ.ops @ [ Op.apply (Gates.RY 0.17) 0 ] in
          { c with Circ.ops = ops }
        end
        else c
      in
      let expected = not mutate in
      let exact_ok =
        List.for_all
          (fun strategy ->
            (Qcec.Verify.functional ~strategy c c').Qcec.Verify.equivalent = expected)
          [ Qcec.Strategy.Construction; Qcec.Strategy.Sequential
          ; Qcec.Strategy.Proportional; Qcec.Strategy.Lookahead ]
      in
      let sim_ok =
        mutate
        || (Qcec.Verify.functional
              ~strategy:
                (Qcec.Strategy.Random_stimuli { kind = Qcec.Strategy.Basis; shots = 6 })
              c c')
             .Qcec.Verify.equivalent
      in
      exact_ok && sim_ok)

let test_stimuli_kinds () =
  let pair = Algorithms.Qpe.paper_example () in
  List.iter
    (fun kind ->
      let r =
        Qcec.Verify.functional
          ~strategy:(Qcec.Strategy.Random_stimuli { kind; shots = 6 })
          pair.Algorithms.Pair.static_circuit pair.Algorithms.Pair.dynamic_circuit
      in
      Alcotest.(check bool)
        (Fmt.str "%s stimuli accept equivalence"
           (Qcec.Strategy.name (Qcec.Strategy.Random_stimuli { kind; shots = 6 })))
        true r.Qcec.Verify.equivalent)
    [ Qcec.Strategy.Basis; Qcec.Strategy.Product; Qcec.Strategy.Entangled ]

let test_product_stimuli_catch_phases () =
  (* Z acts only as a phase on basis states, so basis stimuli are blind to
     it; product stimuli are not *)
  let a = Circ.make ~name:"a" ~qubits:1 ~cbits:0 [ Op.apply Gates.Z 0 ] in
  let b = Circ.make ~name:"b" ~qubits:1 ~cbits:0 [] in
  let check kind =
    (Qcec.Verify.functional
       ~strategy:(Qcec.Strategy.Random_stimuli { kind; shots = 8 })
       a b)
      .Qcec.Verify.equivalent
  in
  Alcotest.(check bool) "basis stimuli blind to Z" true (check Qcec.Strategy.Basis);
  Alcotest.(check bool) "product stimuli catch Z" false (check Qcec.Strategy.Product)

let test_approximate () =
  let c = Algorithms.Random_circuit.unitary ~seed:8 ~qubits:3 ~gates:15 in
  let r = Qcec.Verify.approximate c c in
  Util.check_float "self fidelity" 1.0 r.Qcec.Verify.process_fidelity;
  Alcotest.(check bool) "within" true r.Qcec.Verify.within;
  let mutated =
    { c with Circ.ops = c.Circ.ops @ [ Op.apply (Gates.RY 0.1) 1 ] }
  in
  let r = Qcec.Verify.approximate c mutated in
  (* |Tr(U^d U')| / 2^n = |Tr RY(0.1)| / 2 = cos 0.05 *)
  Util.check_float ~tol:1e-9 "perturbed fidelity" (Float.cos 0.05)
    r.Qcec.Verify.process_fidelity;
  Alcotest.(check bool) "outside tight threshold" false r.Qcec.Verify.within;
  let r = Qcec.Verify.approximate ~threshold:0.99 c mutated in
  Alcotest.(check bool) "inside loose threshold" true r.Qcec.Verify.within

let test_dynamic_vs_dynamic_distribution () =
  (* both sides dynamic: IQPE against itself with a different (equivalent)
     correction representation *)
  let dyn = Algorithms.Qpe.dynamic ~theta:(3.0 /. 16.0) ~bits:3 in
  let r = Qcec.Verify.distribution dyn dyn in
  Alcotest.(check bool) "dynamic reference accepted" true
    r.Qcec.Verify.distributions_equal

(* -- multi-controlled decomposition -------------------------------------- *)

let test_sqrt_unitary () =
  let gates =
    [ Gates.X; Gates.Y; Gates.Z; Gates.H; Gates.S; Gates.T; Gates.RX 0.7
    ; Gates.U3 (1.1, -0.3, 0.8); Gates.I; Gates.P 2.9
    ]
  in
  let mul a b =
    [| Cx.add (Cx.mul a.(0) b.(0)) (Cx.mul a.(1) b.(2))
     ; Cx.add (Cx.mul a.(0) b.(1)) (Cx.mul a.(1) b.(3))
     ; Cx.add (Cx.mul a.(2) b.(0)) (Cx.mul a.(3) b.(2))
     ; Cx.add (Cx.mul a.(2) b.(1)) (Cx.mul a.(3) b.(3))
    |]
  in
  List.iter
    (fun g ->
      let u = Gates.matrix g in
      let v = Qcompile.Decompose.sqrt_unitary u in
      let vv = mul v v in
      Array.iteri
        (fun i x ->
          Util.check_cx (Fmt.str "sqrt %s entry %d" (Gates.name g) i) x vv.(i))
        u)
    gates

let test_multi_controlled_vs_dense () =
  (* 2, 3 and 4 controls on a 5-qubit register, several gates *)
  let cases =
    [ (Gates.Z, [ 0; 1 ], 2)
    ; (Gates.X, [ 0; 1; 2 ], 3)
    ; (Gates.Z, [ 0; 1; 2; 3 ], 4)
    ; (Gates.P 0.7, [ 4; 2 ], 0)
    ; (Gates.H, [ 1; 3 ], 2)
    ; (Gates.U3 (0.5, 0.2, -0.9), [ 0; 4; 2 ], 3)
    ]
  in
  List.iter
    (fun (gate, controls, target) ->
      let direct =
        Circ.make ~name:"mc" ~qubits:5 ~cbits:0
          [ Op.Apply
              { gate
              ; controls = List.map (fun cq -> { Op.cq; pos = true }) controls
              ; target
              }
          ]
      in
      let expanded =
        Circ.make ~name:"mc_exp" ~qubits:5 ~cbits:0
          (Qcompile.Decompose.multi_controlled ~controls ~target (Gates.matrix gate))
      in
      let a = Qsim.Statevector.unitary_matrix direct in
      let b = Qsim.Statevector.unitary_matrix expanded in
      if not (Util.matrices_equal ~tol:1e-7 a b) then
        Alcotest.failf "multi-controlled %s with %d controls differs" (Gates.name gate)
          (List.length controls))
    cases

let test_grover_decomposes () =
  let c = Circ.strip_measurements (Algorithms.Grover.static ~marked:9 ~qubits:4 ()) in
  let basis = Qcompile.Decompose.to_basis c in
  let r = Qcec.Verify.functional c basis in
  Alcotest.(check bool) "grover decomposition equivalent" true r.Qcec.Verify.equivalent

(* -- noisy density simulation --------------------------------------------- *)

let test_noise_trace_preserving () =
  let noise = { Qsim.Density.depolarizing = 0.05; amplitude_damping = 0.03 } in
  let c = Algorithms.Ghz.static 3 in
  let d = Qsim.Density.run_noisy ~noise c in
  Util.check_float ~tol:1e-9 "trace 1 under noise" 1.0 (Qsim.Density.trace d)

let test_noise_reduces_purity () =
  let c =
    Circ.make ~name:"bell" ~qubits:2 ~cbits:0
      [ Op.apply Gates.H 0; Op.controlled Gates.X ~control:0 ~target:1 ]
  in
  let clean = Qsim.Density.run c in
  let noisy =
    Qsim.Density.run_noisy
      ~noise:{ Qsim.Density.depolarizing = 0.1; amplitude_damping = 0.0 }
      c
  in
  Alcotest.(check bool) "purity drops" true
    (Qsim.Density.purity noisy < Qsim.Density.purity clean -. 0.05)

let test_amplitude_damping_decays () =
  (* X then many identity steps with damping: P(1) decays towards 0 *)
  let gamma = 0.2 in
  let steps = 10 in
  let ops = Op.apply Gates.X 0 :: List.init steps (fun _ -> Op.apply Gates.I 0) in
  let c = Circ.make ~name:"decay" ~qubits:1 ~cbits:0 ops in
  let d =
    Qsim.Density.run_noisy
      ~noise:{ Qsim.Density.depolarizing = 0.0; amplitude_damping = gamma }
      c
  in
  let expected = Float.pow (1.0 -. gamma) (float_of_int (steps + 1)) in
  Util.check_float ~tol:1e-9 "exponential decay" expected
    (Qsim.Density.qubit_probability d 0)

let test_noise_perturbs_distribution () =
  let dyn = Algorithms.Qpe.dynamic ~theta:(3.0 /. 16.0) ~bits:3 in
  let clean = Qsim.Density.distribution (Qsim.Density.run dyn) in
  let noisy =
    Qsim.Density.distribution
      (Qsim.Density.run_noisy
         ~noise:{ Qsim.Density.depolarizing = 0.02; amplitude_damping = 0.01 }
         dyn)
  in
  let tv = Qcec.Distribution.total_variation clean noisy in
  Alcotest.(check bool) (Fmt.str "noise visible (TVD %.4f)" tv) true (tv > 0.01);
  Util.check_float ~tol:1e-9 "still a distribution" 1.0 (Qcec.Distribution.mass noisy)

let suite =
  [ Alcotest.test_case "auto alignment on all families" `Quick test_auto_align_families
  ; Alcotest.test_case "inferred permutation matches" `Quick
      test_auto_align_matches_known_perm
  ; Alcotest.test_case "alignment can be disabled" `Quick test_auto_align_disabled
  ; Alcotest.test_case "alignment rejects mismatches" `Quick
      test_alignment_rejects_mismatch
  ; Alcotest.test_case "lookahead strategy" `Quick test_lookahead_positive_negative
  ; Alcotest.test_case "stimuli kinds" `Quick test_stimuli_kinds
  ; Alcotest.test_case "product stimuli catch phases" `Quick
      test_product_stimuli_catch_phases
  ; Alcotest.test_case "approximate equivalence" `Quick test_approximate
  ; Alcotest.test_case "dynamic vs dynamic distribution" `Quick
      test_dynamic_vs_dynamic_distribution
  ; Alcotest.test_case "sqrt of unitaries" `Quick test_sqrt_unitary
  ; Alcotest.test_case "multi-controlled vs dense" `Quick test_multi_controlled_vs_dense
  ; Alcotest.test_case "grover decomposes" `Quick test_grover_decomposes
  ; Alcotest.test_case "noise: trace preserving" `Quick test_noise_trace_preserving
  ; Alcotest.test_case "noise: purity drops" `Quick test_noise_reduces_purity
  ; Alcotest.test_case "noise: amplitude damping" `Quick test_amplitude_damping_decays
  ; Alcotest.test_case "noise: perturbs distribution" `Quick
      test_noise_perturbs_distribution
  ; Util.qtest prop_all_strategies_agree
  ]

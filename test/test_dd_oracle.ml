(* Differential testing of the DD flows against the dense reference
   implementation ([Qsim.Statevector]): on random pairs, every functional
   verdict must match equality of the dense system matrices (up to global
   phase), every Section 5 distribution must match the dense extraction
   bitstring for bitstring, and every simulated state must match the dense
   amplitudes.  Half of the pairs carry a deliberate discrepancy, so the
   [false] verdicts are exercised too, not just the happy path. *)

module Circ = Circuit.Circ
module Op = Circuit.Op
module Sv = Qsim.Statevector

(* The dense counterpart of [Verify.functional]: transform dynamic
   inputs, align the wires by the measurements, then compare the full
   system matrices.  Returns [(up_to_phase, exact)]. *)
let dense_verdict g g' =
  let static_of c = if Circ.is_dynamic c then Transform.Dynamic.transform c else c in
  let g = static_of g and g' = static_of g' in
  let g' =
    match Qcec.Verify.measurement_alignment g g' with
    | Some perm when Circ.measurements g <> [] -> Circ.remap g' ~perm
    | _ -> g'
  in
  let u = Sv.unitary_matrix g and u' = Sv.unitary_matrix g' in
  (Util.matrices_equal_up_to_phase u u', Util.matrices_equal u u')

let agrees_with_dense a b =
  let r = Qcec.Verify.functional a b in
  (r.Qcec.Verify.equivalent, r.Qcec.Verify.exactly_equal) = dense_verdict a b

(* half the cases get a deliberate discrepancy *)
let perturb c =
  { c with
    Circ.name = c.Circ.name ^ "+x"
  ; Circ.ops = c.Circ.ops @ [ Op.apply Circuit.Gates.X 0 ]
  }

(* X up front, for circuits whose tail is measurements *)
let perturb_front c =
  { c with
    Circ.name = c.Circ.name ^ "+x"
  ; Circ.ops = Op.apply Circuit.Gates.X 0 :: c.Circ.ops
  }

let prop_unitary_functional =
  QCheck.Test.make
    ~name:"functional verdicts agree with dense matrices on random unitary pairs"
    ~count:60
    QCheck.(pair (int_range 1 5) (int_range 0 100000))
    (fun (n, seed) ->
      let a = Algorithms.Random_circuit.unitary ~seed ~qubits:n ~gates:12 in
      let b = if seed mod 2 = 0 then a else perturb a in
      agrees_with_dense a b)

let prop_measure_terminal_functional =
  QCheck.Test.make
    ~name:"functional verdicts agree with dense matrices on measure-terminal pairs"
    ~count:40
    QCheck.(pair (int_range 1 4) (int_range 0 100000))
    (fun (n, seed) ->
      let u = Algorithms.Random_circuit.unitary ~seed ~qubits:n ~gates:10 in
      let measured c =
        Circ.make ~name:(c.Circ.name ^ "+measure") ~qubits:n ~cbits:n
          (c.Circ.ops @ List.init n (fun q -> Op.Measure { qubit = q; cbit = q }))
      in
      let a = measured u in
      let b = if seed mod 2 = 0 then a else measured (perturb u) in
      agrees_with_dense a b)

let prop_dynamic_transformed_functional =
  QCheck.Test.make
    ~name:"functional verdicts agree with dense matrices on dynamic-vs-transformed pairs"
    ~count:40
    QCheck.(pair (int_range 2 4) (int_range 0 100000))
    (fun (n, seed) ->
      let dyn = Algorithms.Random_circuit.dynamic ~seed ~qubits:n ~cbits:2 ~ops:12 in
      let static = Transform.Dynamic.transform dyn in
      let static = if seed mod 2 = 0 then static else perturb_front static in
      agrees_with_dense static dyn)

(* the Section 5 flow: the extracted distribution (the would-be
   counterexample bitstrings and their probabilities) must match the dense
   extraction, for agreeing and disagreeing pairs alike *)
let prop_distribution_bitstrings =
  QCheck.Test.make
    ~name:"distribution verdicts and bitstrings agree with the dense extraction"
    ~count:30
    QCheck.(pair (int_range 2 4) (int_range 0 100000))
    (fun (n, seed) ->
      let dyn = Algorithms.Random_circuit.dynamic ~seed ~qubits:n ~cbits:2 ~ops:10 in
      let static = Transform.Dynamic.transform dyn in
      (* X up front skews the outcome statistics of half the pairs *)
      let static = if seed mod 2 = 0 then static else perturb_front static in
      let r = Qcec.Verify.distribution dyn static in
      let dense_dyn = Sv.extract_distribution dyn in
      let dense_static = Sv.extract_distribution static in
      let dense_tv = Qcec.Distribution.total_variation dense_dyn dense_static in
      let close d d' =
        let keys = List.sort_uniq compare (List.map fst d @ List.map fst d') in
        let prob d k = Option.value ~default:0.0 (List.assoc_opt k d) in
        List.for_all (fun k -> Float.abs (prob d k -. prob d' k) < 1e-9) keys
      in
      r.Qcec.Verify.distributions_equal = (dense_tv <= 1e-9)
      && Float.abs (r.Qcec.Verify.total_variation -. dense_tv) < 1e-9
      && close r.Qcec.Verify.dynamic_distribution dense_dyn
      && close r.Qcec.Verify.static_distribution dense_static)

let prop_simulation_amplitudes =
  QCheck.Test.make ~name:"simulated states match the dense amplitudes" ~count:60
    QCheck.(pair (int_range 1 6) (int_range 0 100000))
    (fun (n, seed) ->
      let c = Algorithms.Random_circuit.unitary ~seed ~qubits:n ~gates:15 in
      let p = Dd.Pkg.create () in
      let v = Qsim.Dd_sim.simulate p c in
      Array.for_all2
        (fun a b -> Util.cx_close ~tol:1e-9 a b)
        (Dd.Vec.to_array p v ~n)
        (Sv.run_unitary c).Sv.amps)

let suite =
  [ Util.qtest prop_unitary_functional
  ; Util.qtest prop_measure_terminal_functional
  ; Util.qtest prop_dynamic_transformed_functional
  ; Util.qtest prop_distribution_bitstrings
  ; Util.qtest prop_simulation_amplitudes
  ]

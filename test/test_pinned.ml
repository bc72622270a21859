(* Pinned decision-diagram sizes.  The interning table's probe order decides
   which representative a weight gets, and through it which nodes the
   unique tables share; a probe change that picks a different
   representative shows up here as a changed node or weight count, long
   before it moves a benchmark.  The expected figures were recorded from
   the list-based probe that the in-place table replaced.

   Functional (Section 4): the dynamic circuit is transformed and aligned
   exactly as [Verify.functional] does it, then checked with the default
   strategy in a package of our own, whose [Pkg.stats] are pinned together
   with the check's peak node count (which must equal the one
   [Verify.functional] reports).  Distribution (Section 5): the static
   circuit is simulated in a package of our own ([Pkg.stats] pinned), and
   [Verify.distribution]'s extraction counts and interning and unique-table
   insertions are pinned. *)

module Pair = Algorithms.Pair
module Circ = Circuit.Circ
module Pkg = Dd.Pkg

let pairs =
  [ ("bv", Algorithms.Bv.make (Array.init 12 (fun i -> i mod 3 <> 1)))
  ; ("qft", Algorithms.Qft.make 7)
  ; ("qpe_textbook", Algorithms.Qpe.make_textbook ~theta:0.3 ~bits:6)
  ]

let stats_to_list (s : Pkg.stats) = [ s.Pkg.vector_nodes; s.Pkg.matrix_nodes; s.Pkg.weights ]

(* vector nodes, matrix nodes, weights, peak nodes *)
let functional_sizes (pair : Pair.t) =
  let g = pair.Pair.static_circuit in
  let g' =
    Circ.remap (Transform.Dynamic.transform pair.Pair.dynamic_circuit) ~perm:pair.Pair.dyn_to_static
  in
  let p = Pkg.create () in
  let o = Qcec.Strategy.check p Qcec.Strategy.default g g' in
  let r = Qcec.Verify.functional ~perm:pair.Pair.dyn_to_static g pair.Pair.dynamic_circuit in
  Alcotest.(check bool) "equivalent" true
    (o.Qcec.Strategy.equivalent_up_to_phase && r.Qcec.Verify.equivalent);
  Alcotest.(check int) "same peak as Verify.functional" r.Qcec.Verify.peak_nodes
    o.Qcec.Strategy.peak_nodes;
  stats_to_list (Pkg.stats p) @ [ o.Qcec.Strategy.peak_nodes ]

(* static simulation's vector nodes, matrix nodes, weights; extraction
   leaves, branch points, pruned, gate applications; interning inserts and
   vector unique-table inserts over the whole [Verify.distribution] *)
let distribution_sizes (pair : Pair.t) =
  let p = Pkg.create () in
  ignore (Qsim.Dd_sim.simulate p pair.Pair.static_circuit);
  let sim = stats_to_list (Pkg.stats p) in
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () ->
      let before = Obs.Metrics.snapshot () in
      let r = Qcec.Verify.distribution pair.Pair.dynamic_circuit pair.Pair.static_circuit in
      let d = Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ()) in
      Alcotest.(check bool) "distributions equal" true r.Qcec.Verify.distributions_equal;
      let e = r.Qcec.Verify.extraction_stats in
      sim
      @ [ e.Qsim.Extraction.leaves
        ; e.Qsim.Extraction.branch_points
        ; e.Qsim.Extraction.pruned
        ; e.Qsim.Extraction.gate_applications
        ; Obs.Metrics.find d "cx.table.inserts"
        ; Obs.Metrics.find d "dd.unique.vec.inserts"
        ])

let expected =
  [ (("bv", `Functional), [ 0; 736; 20; 25 ])
  ; (("qft", `Functional), [ 0; 147; 13; 13 ])
  ; (("qpe_textbook", `Functional), [ 0; 3661; 147; 267 ])
  ; (("bv", `Distribution), [ 255; 0; 8; 1; 23; 23; 34; 11; 265 ])
  ; (("qft", `Distribution), [ 35; 0; 10; 128; 253; 126; 448; 16; 38 ])
  ; (("qpe_textbook", `Distribution), [ 387; 0; 961; 64; 125; 62; 319; 1666; 642 ])
  ]

let ints = Fmt.(str "[%a]" (list ~sep:(any "; ") int))

let test scheme () =
  List.iter
    (fun (name, pair) ->
      let got =
        match scheme with
        | `Functional -> functional_sizes pair
        | `Distribution -> distribution_sizes pair
      in
      Alcotest.(check string) name (ints (List.assoc (name, scheme) expected)) (ints got))
    pairs

let suite =
  [ Alcotest.test_case "functional: Pkg.stats and peak nodes" `Quick (test `Functional)
  ; Alcotest.test_case "distribution: Pkg.stats and extraction counts" `Quick (test `Distribution)
  ]

(* The bounded-cache path: every operation and kernel cache capped at 64
   entries and automatic compaction after 512 new nodes, so the
   second-chance eviction order and the sweeps decide what is recomputed.
   Pinned per pair: [Pkg.stats], the check's peak node count, the
   evictions of each cache ([vadd], [madd], [mv], [mm], [ip], [adj], the
   two kernel caches jointly) and the number of sweeps. *)
let bounded_config = { Pkg.caps = Pkg.caps_uniform 64; gc_threshold = Some 512 }

let bounded_sizes (pair : Pair.t) =
  let g = pair.Pair.static_circuit in
  let g' =
    Circ.remap (Transform.Dynamic.transform pair.Pair.dynamic_circuit) ~perm:pair.Pair.dyn_to_static
  in
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () ->
      let before = Obs.Metrics.snapshot () in
      let p = Pkg.create ~config:bounded_config () in
      let o = Qcec.Strategy.check p Qcec.Strategy.default g g' in
      let d = Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ()) in
      Alcotest.(check bool) "equivalent" true o.Qcec.Strategy.equivalent_up_to_phase;
      let evictions c = Obs.Metrics.find d (c ^ ".evictions") in
      stats_to_list (Pkg.stats p)
      @ [ o.Qcec.Strategy.peak_nodes ]
      @ List.map
          (fun c -> evictions ("dd.cache." ^ c))
          [ "vadd"; "madd"; "mv"; "mm"; "ip"; "adj" ]
      @ [ evictions "dd.kernel"; Obs.Metrics.find d "dd.gc.runs" ])

(* vector nodes, matrix nodes, weights, peak nodes; evictions of vadd,
   madd, mv, mm, ip, adj and the kernel caches; sweeps *)
let expected_bounded =
  [ ("bv", [ 0; 251; 20; 25; 0; 0; 0; 0; 0; 0; 700; 1 ])
  ; ("qft", [ 0; 147; 13; 13; 0; 0; 0; 0; 0; 0; 216; 0 ])
  ]

let test_bounded () =
  List.iter
    (fun (name, want) ->
      Alcotest.(check string) name (ints want) (ints (bounded_sizes (List.assoc name pairs))))
    expected_bounded

let suite =
  suite
  @ [ Alcotest.test_case "bounded caches: Pkg.stats, peak, evictions, sweeps" `Quick
        test_bounded
    ]

(* Interning traffic of Scheme 1: the [cx.table.hits] of one
   [Verify.functional] run per pair.  Normalization and scaling skip the
   lookup whenever a factor is exactly one, since interning maps an
   interned weight to itself; code that divides or multiplies by one and
   re-interns the result again raises these counts long before it shows
   in a benchmark.  Recorded with those fast paths in place. *)
let functional_hits (pair : Pair.t) =
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled false)
    (fun () ->
      let before = Obs.Metrics.snapshot () in
      let r =
        Qcec.Verify.functional ~perm:pair.Pair.dyn_to_static pair.Pair.static_circuit
          pair.Pair.dynamic_circuit
      in
      let d = Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ()) in
      Alcotest.(check bool) "equivalent" true r.Qcec.Verify.equivalent;
      Obs.Metrics.find d "cx.table.hits")

let expected_hits = [ ("bv", 2681); ("qft", 588); ("qpe_textbook", 12767) ]

let test_hits () =
  List.iter
    (fun (name, want) ->
      Alcotest.(check int) name want (functional_hits (List.assoc name pairs)))
    expected_hits

let suite =
  suite
  @ [ Alcotest.test_case "functional: interning hits" `Quick test_hits ]

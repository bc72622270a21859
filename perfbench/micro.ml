(* Layer micro-benchmarks (bechamel) on the public calls of cxnum and dd:
   complex interning hits and misses, a unique-table insert, a vector add,
   and the gate kernels on cold and on cached operands.  Each reports the
   median and the quartile spread of ns per call over bechamel's samples. *)

open Bechamel
module Cx = Cxnum.Cx
module Cx_table = Cxnum.Cx_table
module Pkg = Dd.Pkg

let clock = Toolkit.Instance.monotonic_clock

let cfg = Benchmark.cfg ~limit:400 ~quota:(Time.second 0.25) ~kde:None ~stabilize:false ()

(* ns per call: median and quartile spread over the samples of the upper
   half of the run counts, where the timer's own cost is amortized *)
let measure name f =
  let elt = List.hd (Test.elements (Test.make ~name (Staged.stage f))) in
  let r = Benchmark.run cfg [ clock ] elt in
  let label = Measure.label clock in
  let samples = Array.to_list r.Benchmark.lr in
  let runs = List.map Measurement_raw.run samples in
  let cut = Common.median runs in
  let per_call =
    List.filter_map
      (fun m ->
        let run = Measurement_raw.run m in
        if run >= cut then Some (Measurement_raw.get ~label m /. run) else None)
      samples
  in
  (Common.median per_call, Common.iqr_rel per_call)

let random_cx st = Cx.make (Random.State.float st 2.0 -. 1.0) (Random.State.float st 2.0 -. 1.0)

let cx_hit () =
  let t = Cx_table.create () in
  let z = Cx.make 0.3 0.4 in
  ignore (Cx_table.lookup t z);
  measure "cxnum.hit" (fun () -> Cx_table.lookup t z)

(* Misses on a table already holding [size] values; every call interns a
   new value, so the table grows by the calls made (a few percent). *)
let cx_miss st size =
  let t = Cx_table.create () in
  for _ = 1 to size do
    ignore (Cx_table.lookup t (random_cx st))
  done;
  measure (Printf.sprintf "cxnum.miss.%d" size) (fun () -> Cx_table.lookup t (random_cx st))

(* [k] distinct one-qubit nodes with unit-weight edges; pairing two of
   them under a fresh parent is a unique-table insert whose normalized
   weights (1/sqrt 2) are interning hits. *)
let make_vnode st =
  let p = Pkg.create () in
  let k = 2048 in
  let kids =
    Array.init k (fun _ ->
      let a = Random.State.float st Float.pi in
      Pkg.make_vnode p 0 (Pkg.vterminal p (Cx.make (cos a) 0.0)) (Pkg.vterminal p (Cx.make (sin a) 0.0)))
  in
  let i = ref 0 in
  measure "dd.make_vnode" (fun () ->
    incr i;
    Pkg.make_vnode p 1 kids.(!i mod k) kids.(!i / k mod k))

(* Operands are basis states and Clifford gates, whose weights are all
   already interned: the kernels are timed without interning misses,
   which cxnum.miss_ns measures on its own. *)
let basis_states st p ~n k =
  Array.init k (fun _ ->
    let bits = Array.init n (fun _ -> Random.State.bool st) in
    Pkg.basis_state p n (fun q -> bits.(q)))

let vec_add st =
  let p = Pkg.create () in
  let k = 512 in
  let vs = basis_states st p ~n:16 k in
  let i = ref 0 in
  measure "dd.vec_add" (fun () ->
    incr i;
    Dd.Vec.add p vs.(!i mod k) vs.(!i / k mod k))

(* Cold: operands cycle through more states than the (bounded) kernel
   cache holds, so every call recomputes.  Cached: one operand, a hit. *)
let kernel_pkg () =
  Pkg.create
    ~config:{ Pkg.default_config with Pkg.caps = { Pkg.caps_unbounded with Pkg.kernel = 256 } }
    ()

let h = Circuit.Gates.matrix Circuit.Gates.H

let apply_gate st =
  let n = 16 and k = 4096 in
  let p = kernel_pkg () in
  let vs = basis_states st p ~n k in
  let i = ref 0 in
  let apply v = Dd.Mat.apply_gate p ~n ~controls:[ (2, true) ] ~target:5 h v in
  let cold =
    measure "dd.apply_gate.cold" (fun () ->
      incr i;
      apply vs.(!i mod k))
  in
  let cached = measure "dd.apply_gate.cached" (fun () -> apply vs.(0)) in
  (cold, cached)

let mul_gate_left st =
  let n = 8 and k = 4096 in
  let p = kernel_pkg () in
  let cliffords = Circuit.Gates.[| H; S; X; Z; SX |] in
  let random_gate m =
    let target = Random.State.int st n in
    let control = (target + 1 + Random.State.int st (n - 1)) mod n in
    let u = Circuit.Gates.matrix cliffords.(Random.State.int st (Array.length cliffords)) in
    Dd.Mat.mul_gate_left p ~n ~controls:[ (control, Random.State.bool st) ] ~target u m
  in
  (* products of a few random controlled Cliffords: distinct operands *)
  let ms = Array.init k (fun _ -> random_gate (random_gate (random_gate (Pkg.ident p n)))) in
  let i = ref 0 in
  let mul m = Dd.Mat.mul_gate_left p ~n ~controls:[ (0, true) ] ~target:3 h m in
  let cold =
    measure "dd.mul_gate_left.cold" (fun () ->
      incr i;
      mul ms.(!i mod k))
  in
  let cached = measure "dd.mul_gate_left.cached" (fun () -> mul ms.(0)) in
  (cold, cached)

(* (name, median ns, relative spread) for every micro-benchmark *)
let run ~seed =
  let st = Random.State.make [| seed; 0x3c |] in
  let ag_cold, ag_cached = apply_gate st in
  let mg_cold, mg_cached = mul_gate_left st in
  [ ("cxnum.hit_ns", cx_hit ())
  ; ("cxnum.miss_ns.50k", cx_miss st 50_000)
  ; ("cxnum.miss_ns.300k", cx_miss st 300_000)
  ; ("dd.make_vnode_ns", make_vnode st)
  ; ("dd.vec_add_ns", vec_add st)
  ; ("dd.apply_gate_ns.cold", ag_cold)
  ; ("dd.apply_gate_ns.cached", ag_cached)
  ; ("dd.mul_gate_left_ns.cold", mg_cold)
  ; ("dd.mul_gate_left_ns.cached", mg_cached)
  ]
  |> List.map (fun (name, (med, spread)) -> (name, med, spread))

(* Per-layer timings the benchmark takes itself by calling the public
   entry points of a layer on the workload's own inputs. *)

open Common
module Circ = Circuit.Circ

let reps = 5

(* median seconds of [reps] calls of [f] *)
let timed f = median (List.init reps (fun _ -> snd (time f)))

(* circuit and analysis: parse, digest, lint and cost-profile every QASM
   input once; seconds per input set *)
let front_end qasm =
  let circuits = List.map (fun s -> Circuit.Qasm3_parser.parse_any s) qasm in
  let each f () = List.iter (fun c -> ignore (Sys.opaque_identity (f c))) circuits in
  [ m "circuit.parse_s" "s" (timed (fun () -> List.iter (fun s -> ignore (Circuit.Qasm3_parser.parse_any s)) qasm))
  ; m "circuit.digest_s" "s" (timed (each (fun c -> Circ.digest c)))
  ; m "analysis.lint_s" "s" (timed (each Analysis.lint))
  ; m "analysis.profile_s" "s" (timed (each Analysis.Cost.profile))
  ]

(* cache_store: microseconds per insert and per lookup on an on-disk
   store of [n] entries *)
let store_calls ~dir ~n =
  match Cache_store.Store.open_dir dir with
  | Error e -> failwith ("cannot open the verdict store: " ^ e)
  | Ok store ->
    Fun.protect
      ~finally:(fun () -> Cache_store.Store.close store)
      (fun () ->
        let key i = Digest.to_hex (Digest.string (string_of_int i)) in
        let entry i =
          { Cache_store.Store.key = key i
          ; digest_a = key (-i)
          ; digest_b = key (i + n)
          ; strategy = "proportional"
          ; equivalent = i mod 7 <> 0
          ; exactly_equal = false
          ; transformed_qubits = 10
          ; peak_nodes = 100 + i
          ; t_transform = 0.001
          ; t_check = 0.01
          }
        in
        let entries = List.init n entry in
        let (), ins = time (fun () -> List.iter (Cache_store.Store.insert store) entries) in
        let (), find =
          time (fun () -> List.iter (fun i -> ignore (Cache_store.Store.lookup store (key i))) (List.init n Fun.id))
        in
        [ m "cache_store.insert_us" "us" (1e6 *. ins /. float_of_int n)
        ; m "cache_store.find_us" "us" (1e6 *. find /. float_of_int n)
        ])

(* qsim: drawing the 64 stimuli of each simulative item and building them
   as DD vectors, in seconds per pass *)
let stimuli_prep ~seed (items : (Qcec.Strategy.stimuli * int * int) list) =
  let prep () =
    List.iter
      (fun (kind, n, shots) ->
        let p = Dd.Pkg.create () in
        let st = Qsim.Stimuli.rng ~seed ~num_qubits:n ~shots () in
        for _ = 1 to shots do
          match Qsim.Stimuli.draw st (Qcec.Strategy.stimuli_class kind) ~num_qubits:n with
          | Qsim.Stimuli.Basis_state bits -> ignore (Dd.Pkg.basis_state p n (fun q -> bits.(q)))
          | Qsim.Stimuli.Product_state amps -> ignore (Dd.Pkg.product_state p amps)
          | Qsim.Stimuli.Stabilizer_state { bits; prep } ->
            ignore
              (List.fold_left
                 (fun v op ->
                   match op with
                   | Circuit.Op.Apply { gate; controls; target } ->
                     Dd.Mat.apply_gate p ~n
                       ~controls:(List.map (fun c -> (c.Circuit.Op.cq, c.Circuit.Op.pos)) controls)
                       ~target (Circuit.Gates.matrix gate) v
                   | _ -> v)
                 (Dd.Pkg.basis_state p n (fun q -> bits.(q)))
                 prep)
        done)
      items
  in
  m "qsim.stimuli_prep_s" "s" (if items = [] then 0.0 else timed prep)

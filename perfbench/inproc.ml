(* The three in-process workloads: functional (Scheme 1), extraction
   (Scheme 2) and stimuli (simulative checking).  Each is a fixed list of
   items generated from the seed; a pass verifies every item once. *)

open Common
module Circ = Circuit.Circ
module Op = Circuit.Op
module Pair = Algorithms.Pair
module Verify = Qcec.Verify

type outcome =
  { verdict : bool
  ; check_s : float
  ; functional : Verify.functional_result option
  ; distribution : Verify.distribution_result option
  }

type item =
  { label : string
  ; expected : bool
  ; circuits : Circ.t list  (** the inputs, for the front-end layer timings *)
  ; dyn_qubits : int
  ; strategy : Qcec.Strategy.t option
  ; run : pass:int -> outcome
      (** pass 0 is the warm-up; simulative items draw their stimuli from
          the seed and the pass *)
  }

(* ------------------------------------------------------------------ *)
(* Single-gate mutants with a known "not equivalent" answer            *)

(* Rewrites the first op (or, with [~last:true], the last op) that [pick]
   selects into the ops [f] returns. *)
let mutate ?(last = false) c ~pick ~f =
  let found = ref false in
  let visit ops =
    List.concat_map
      (fun op ->
        if (not !found) && pick op then begin
          found := true;
          f op
        end
        else [ op ])
      ops
  in
  let ops = if last then List.rev (visit (List.rev c.Circ.ops)) else visit c.Circ.ops in
  if not !found then invalid_arg ("no mutation site in " ^ c.Circ.name);
  Circ.make ~name:(c.Circ.name ^ "_mut") ~qubits:c.Circ.num_qubits ~cbits:c.Circ.num_cbits ops

let is_phase = function
  | Op.Apply { gate = Circuit.Gates.P _; _ } -> true
  | _ -> false

let add_phase delta = function
  | Op.Apply ({ gate = Circuit.Gates.P a; _ } as g) ->
    [ Op.Apply { g with gate = Circuit.Gates.P (a +. delta) } ]
  | op -> [ op ]

(* Changes the last phase gate by pi/2; a circuit without one (BV) gets
   an S right after the first Hadamard on wire 0.  Inserting any
   non-identity, non-global-phase gate changes the unitary, so the pair
   is not equivalent whatever the rest of the circuit does.  The site is
   late in phase-rich circuits: the residual product U_mut U^dagger is the
   inserted gate conjugated by the ops after it, which stays a small DD
   only when few ops follow. *)
let phase_mutant c =
  if List.exists is_phase c.Circ.ops then
    mutate ~last:true c ~pick:is_phase ~f:(add_phase (Float.pi /. 2.0))
  else
    mutate c
      ~pick:(function
        | Op.Apply { gate = Circuit.Gates.H; controls = []; target = 0 } -> true
        | _ -> false)
      ~f:(fun op -> [ op; Op.apply (Circuit.Gates.P (Float.pi /. 2.0)) 0 ])

(* An X on wire [q] just before the first measurement: every output
   differs in that qubit, so every stimulus exposes it. *)
let x_mutant c ~q =
  mutate c
    ~pick:(function
      | Op.Measure _ -> true
      | _ -> false)
    ~f:(fun op -> [ Op.apply Circuit.Gates.X q; op ])

(* Adds pi to the controlled phase between the last counting qubit and the
   eigenstate qubit of the aligned static QPE: the kickback of 2 pi theta.
   That estimates theta + 1/2 instead of theta, shifting the output
   distribution by half its range. *)
let qpe_half_turn_mutant c ~bits =
  mutate c
    ~pick:(fun op -> is_phase op && List.sort compare (Op.qubits op) = [ bits - 1; bits ])
    ~f:(add_phase Float.pi)

(* ------------------------------------------------------------------ *)
(* Seeded inputs of seed-independent cost                              *)

(* A hidden string with exactly half its bits set, at seeded positions:
   the oracle's CX count, which sets the BV checking cost, is then the
   same for every seed. *)
let hidden_string ~seed n =
  let st = Random.State.make [| seed; n; 0xb5 |] in
  let a = Array.init n (fun i -> i < n / 2) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let bv ~seed n = Algorithms.Bv.make (hidden_string ~seed n)

(* A phase with a seeded [bits]-bit estimate plus a fixed 3/8 of the last
   bit, which [bits] bits cannot represent: the seed moves the output
   distribution without changing its shape, so extraction explores the
   same number of branches for every seed. *)
let unrepresentable_theta ~seed ~bits =
  let st = Random.State.make [| seed; bits; 0x7e |] in
  let k = Random.State.int st (1 lsl bits) in
  (float_of_int k +. 0.375) /. float_of_int (1 lsl bits)

(* ------------------------------------------------------------------ *)
(* Items                                                               *)

let functional_item ?strategy ?seed ~label ~expected (pair : Pair.t) static =
  let dyn = pair.Pair.dynamic_circuit in
  { label
  ; expected
  ; circuits = [ static; dyn ]
  ; dyn_qubits = dyn.Circ.num_qubits
  ; strategy
  ; run =
      (fun ~pass ->
        let seed = Option.map (fun s -> (s * 1_000_003) + pass) seed in
        let r = Verify.functional ?strategy ?seed ~perm:pair.Pair.dyn_to_static static dyn in
        { verdict = r.Verify.equivalent
        ; check_s = r.Verify.t_check
        ; functional = Some r
        ; distribution = None
        })
  }

let distribution_item ~label ~expected ~dyn static =
  { label
  ; expected
  ; circuits = [ static; dyn ]
  ; dyn_qubits = dyn.Circ.num_qubits
  ; strategy = None
  ; run =
      (fun ~pass:_ ->
        let r = Verify.distribution dyn static in
        { verdict = r.Verify.distributions_equal
        ; check_s = r.Verify.t_extract +. r.Verify.t_simulate
        ; functional = None
        ; distribution = Some r
        })
  }

let both ~label ?strategy ?seed ~mutant (pair : Pair.t) =
  [ functional_item ?strategy ?seed ~label ~expected:true pair pair.Pair.static_circuit
  ; functional_item ?strategy ?seed ~label:(label ^ "_mut") ~expected:false pair
      (mutant pair.Pair.static_circuit)
  ]

(* Scheme 1 on the Table 1 families: matrix-DD kernels, the matrix unique
   table and interning hits do the work. *)
let functional ~seed =
  let bv = bv ~seed 96 in
  let qft = Algorithms.Qft.make 40 in
  let bits = 8 in
  let qpe = Algorithms.Qpe.make_textbook ~theta:(Algorithms.Qpe.random_theta ~seed ~bits) ~bits in
  both ~label:"bv96" ~mutant:phase_mutant bv
  @ both ~label:"qft40" ~mutant:phase_mutant qft
  @ both ~label:"qpe_tb8" ~mutant:phase_mutant qpe

(* Scheme 2: a dense-output QFT (vector kernels, interning hits) and an
   IQPE whose phase needs more bits than it has (interning misses). *)
let extraction ~seed =
  let qft = Algorithms.Qft.make 14 in
  let bits = 11 in
  let iqpe = Algorithms.Qpe.make ~theta:(unrepresentable_theta ~seed ~bits) ~bits in
  let mbits = 9 in
  let mpair = Algorithms.Qpe.make ~theta:(unrepresentable_theta ~seed ~bits:mbits) ~bits:mbits in
  [ distribution_item ~label:"qft14" ~expected:true ~dyn:qft.Pair.dynamic_circuit qft.Pair.static_circuit
  ; distribution_item ~label:"iqpe11" ~expected:true ~dyn:iqpe.Pair.dynamic_circuit
      iqpe.Pair.static_circuit
  ; distribution_item ~label:"iqpe9_mut" ~expected:false ~dyn:mpair.Pair.dynamic_circuit
      (qpe_half_turn_mutant mpair.Pair.static_circuit ~bits:mbits)
  ]

(* Simulative checking: every shot builds fresh state vectors, so
   interning misses and allocation dominate; basis stimuli on a wide BV
   are the control that makes almost none. *)
let stimuli ~seed =
  let st kind = Qcec.Strategy.Random_stimuli { kind; shots = 64 } in
  let bv n = bv ~seed n in
  let x0 c = x_mutant c ~q:0 in
  (* every oracle bit set: with four bits, which ones are set changes the
     DD sizes, so here the seed only draws the stimuli *)
  both ~label:"bv4_product" ~strategy:(st Product) ~seed ~mutant:x0
    (Algorithms.Bv.make (Array.make 4 true))
  @ [ functional_item ~strategy:(st Product) ~seed ~label:"qft5_product" ~expected:true
        (Algorithms.Qft.make 5) (Algorithms.Qft.make 5).Pair.static_circuit
    ]
  @ both ~label:"qft7_entangled" ~strategy:(st Entangled) ~seed ~mutant:x0 (Algorithms.Qft.make 7)
  @ [ (let p = bv 16 in
       functional_item ~strategy:(st Basis) ~seed ~label:"bv16_basis" ~expected:true p
         p.Pair.static_circuit)
    ]

(* Seconds one pass takes on a 2-core host.  A run makes a number of
   passes fixed by [--seconds] through this, never by the measured speed,
   so the parent and the change do the same work. *)
let nominal_pass_s = function
  | "functional" -> 1.8
  | "extraction" -> 1.1
  | _ -> 1.4

let passes_for ~workload ~seconds = max 3 (int_of_float (Float.round (seconds /. nominal_pass_s workload)))

let items ~workload ~seed =
  match workload with
  | "functional" -> functional ~seed
  | "extraction" -> extraction ~seed
  | "stimuli" -> stimuli ~seed
  | w -> invalid_arg ("not an in-process workload: " ^ w)

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)

(* What one pass leaves for the per-layer report. *)
type pass =
  { wall : float
  ; metrics : Obs.Metrics.snapshot  (** merged over the pass's operations *)
  ; t_transform : float
  ; added_qubits : int
  ; peak_nodes : int
  ; t_extract : float
  ; t_sim : float
  ; alloc_words : float
  ; minor : int
  ; major : int
  }

let run_pass ~pass log items =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let outs =
    List.map
      (fun it ->
        let factor = Calib.sample () in
        let o, lat = time (fun () -> it.run ~pass) in
        record log
          { label = it.label
          ; expected = it.expected
          ; got = Some o.verdict
          ; latency = lat *. factor
          ; check_s = o.check_s *. factor
          ; factor
          ; warm = false
          };
        (it, o))
      items
  in
  let wall = now () -. t0 in
  let g1 = Gc.quick_stat () in
  record_pass log ~wall;
  let fsum f = List.fold_left (fun a (it, o) -> a +. f it o) 0.0 outs in
  let isum f = List.fold_left (fun a (it, o) -> a + f it o) 0 outs in
  let fr f _ o = Option.fold ~none:0.0 ~some:f o.functional in
  let fi f _ o = Option.fold ~none:0 ~some:f o.functional in
  let dr f _ o = Option.fold ~none:0.0 ~some:f o.distribution in
  { wall
  ; metrics =
      Obs.Metrics.merge
        (List.map
           (fun (_, o) ->
             match (o.functional, o.distribution) with
             | Some r, _ -> r.Verify.metrics
             | None, Some r -> r.Verify.metrics
             | None, None -> [])
           outs)
  ; t_transform = fsum (fr (fun r -> r.Verify.t_transform))
  ; added_qubits =
      isum (fun it o ->
        fi (fun r -> max 0 (r.Verify.transformed_qubits - it.dyn_qubits)) it o)
  ; peak_nodes = isum (fi (fun r -> r.Verify.peak_nodes))
  ; t_extract = fsum (dr (fun r -> r.Verify.t_extract))
  ; t_sim = fsum (dr (fun r -> r.Verify.t_simulate))
  ; alloc_words = g1.Gc.minor_words +. g1.Gc.major_words -. g1.Gc.promoted_words
                  -. (g0.Gc.minor_words +. g0.Gc.major_words -. g0.Gc.promoted_words)
  ; minor = g1.Gc.minor_collections - g0.Gc.minor_collections
  ; major = g1.Gc.major_collections - g0.Gc.major_collections
  }

let run_passes ~passes log items = List.init passes (fun i -> run_pass ~pass:(i + 1) log items)

(* (kind, qubits, shots) of every simulative item, for the stimuli
   preparation timing *)
let stimuli_of items =
  List.filter_map
    (fun it ->
      match it.strategy with
      | Some (Qcec.Strategy.Random_stimuli { kind; shots }) ->
        Some (kind, (List.hd it.circuits).Circ.num_qubits, shots)
      | _ -> None)
    items

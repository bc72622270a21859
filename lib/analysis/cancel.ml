module Op = Circuit.Op
module Gates = Circuit.Gates

let tol = 1e-9
let two_pi = 2.0 *. Float.pi

type finding =
  | Self_inverse_pair of
      { first : int
      ; second : int
      ; qubits : int list
      ; gate : string
      }
  | Adjoint_pair of
      { first : int
      ; second : int
      ; qubits : int list
      ; gate : string
      }
  | Mergeable_rotation of
      { first : int
      ; second : int
      ; qubit : int
      ; gate : string
      }
  | Zero_rotation of
      { op_index : int
      ; qubit : int
      ; gate : string
      }
  | Diagonal_run of
      { start : int
      ; length : int
      }

type result =
  { findings : finding list
  ; cancels : bool array  (** op is one half of a pair that cancels *)
  ; diagonal : bool array  (** op is diagonal in the computational basis *)
  }

(* Diagonal gates commute with each other and have single-path DDs; any
   stack of controls keeps a diagonal gate diagonal. *)
let is_diagonal_gate = function
  | Gates.I | Gates.Z | Gates.S | Gates.Sdg | Gates.T | Gates.Tdg
  | Gates.RZ _ | Gates.P _ -> true
  | Gates.X | Gates.Y | Gates.H | Gates.SX | Gates.SXdg | Gates.RX _
  | Gates.RY _ | Gates.U2 _ | Gates.U3 _ -> false

let is_diagonal_op = function
  | Op.Apply { gate; _ } -> is_diagonal_gate gate
  | Op.Swap _ | Op.Measure _ | Op.Reset _ | Op.Cond _ | Op.Barrier _ -> false

let zero_angle theta =
  let r = Float.abs (Float.rem theta two_pi) in
  r <= tol || two_pi -. r <= tol

let rotation_name = function
  | Gates.RX _ -> Some "rx"
  | Gates.RY _ -> Some "ry"
  | Gates.RZ _ -> Some "rz"
  | Gates.P _ -> Some "p"
  | _ -> None

(* Structural equality of the non-gate shape of two [Apply]s: same target,
   same controls with the same polarities (order-insensitive). *)
let same_shape controls target controls' target' =
  let key cs = List.sort compare (List.map (fun c -> (c.Op.cq, c.Op.pos)) cs) in
  target = target' && key controls = key controls'

let scan (c : Circuit.Circ.t) =
  let ops = Array.of_list c.Circuit.Circ.ops in
  let n = Array.length ops in
  let nq = max c.Circuit.Circ.num_qubits 1 in
  (* last.(q) = index of the last op that touched qubit q, -1 initially *)
  let last = Array.make nq (-1) in
  let consumed = Array.make n false in
  let cancels = Array.make n false in
  let diagonal = Array.init n (fun i -> is_diagonal_op ops.(i)) in
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  (* adjacent-pair relation between op [j] and op [i] on the same qubits *)
  let pair j i =
    match (ops.(j), ops.(i)) with
    | Op.Swap (a, b), Op.Swap (a', b')
      when (min a b, max a b) = (min a' b', max a' b') ->
      Some (Self_inverse_pair { first = j; second = i; qubits = [ a; b ]; gate = "swap" })
    | ( Op.Apply { gate = g; controls = cs; target = t }
      , Op.Apply { gate = g'; controls = cs'; target = t' } )
      when same_shape cs t cs' t' ->
      if Gates.equal ~tol g' (Gates.adjoint g) then begin
        let qubits = Op.qubits ops.(i) in
        if Gates.equal ~tol g (Gates.adjoint g) then
          Some
            (Self_inverse_pair
               { first = j; second = i; qubits; gate = Gates.name g })
        else
          Some
            (Adjoint_pair { first = j; second = i; qubits; gate = Gates.name g })
      end
      else begin
        match (rotation_name g, rotation_name g') with
        | Some r, Some r' when r = r' && cs = [] ->
          Some (Mergeable_rotation { first = j; second = i; qubit = t; gate = r })
        | _ -> None
      end
    | _ -> None
  in
  for i = 0 to n - 1 do
    (match ops.(i) with
     | Op.Apply { gate = (Gates.RX t | Gates.RY t | Gates.RZ t | Gates.P t) as g
                ; target
                ; _ }
       when zero_angle t ->
       emit (Zero_rotation { op_index = i; qubit = target; gate = Gates.name g })
     | _ -> ());
    let qs = Op.qubits ops.(i) in
    (* adjacency: every involved qubit was last touched by the same op *)
    (match qs with
     | [] -> ()
     (* out-of-range operands are QA007's problem, not ours *)
     | _ when not (List.for_all (fun q -> q >= 0 && q < nq) qs) -> ()
     | q0 :: rest ->
       let j = last.(q0) in
       if
         j >= 0
         && (not consumed.(j))
         && List.for_all (fun q -> last.(q) = j) rest
         && List.sort compare (Op.qubits ops.(j)) = List.sort compare qs
       then begin
         match pair j i with
         | Some (Self_inverse_pair _ | Adjoint_pair _) as f ->
           Option.iter emit f;
           consumed.(j) <- true;
           consumed.(i) <- true;
           cancels.(j) <- true;
           cancels.(i) <- true
         | Some f -> emit f
         | None -> ()
       end);
    List.iter (fun q -> if q >= 0 && q < nq then last.(q) <- i) qs
  done;
  (* maximal runs of >= 2 consecutive diagonal unitary ops *)
  let i = ref 0 in
  while !i < n do
    if diagonal.(!i) then begin
      let start = !i in
      while !i < n && diagonal.(!i) do
        incr i
      done;
      if !i - start >= 2 then emit (Diagonal_run { start; length = !i - start })
    end
    else incr i
  done;
  { findings = List.rev !findings; cancels; diagonal }

let finding_to_json f =
  let obj kind fields =
    Qcec_json.Obj (("kind", Qcec_json.String kind) :: fields)
  in
  match f with
  | Self_inverse_pair { first; second; qubits; gate } ->
    obj "self_inverse_pair"
      [ ("first", Qcec_json.Int first)
      ; ("second", Qcec_json.Int second)
      ; ("qubits", Qcec_json.List (List.map (fun q -> Qcec_json.Int q) qubits))
      ; ("gate", Qcec_json.String gate)
      ]
  | Adjoint_pair { first; second; qubits; gate } ->
    obj "adjoint_pair"
      [ ("first", Qcec_json.Int first)
      ; ("second", Qcec_json.Int second)
      ; ("qubits", Qcec_json.List (List.map (fun q -> Qcec_json.Int q) qubits))
      ; ("gate", Qcec_json.String gate)
      ]
  | Mergeable_rotation { first; second; qubit; gate } ->
    obj "mergeable_rotation"
      [ ("first", Qcec_json.Int first)
      ; ("second", Qcec_json.Int second)
      ; ("qubit", Qcec_json.Int qubit)
      ; ("gate", Qcec_json.String gate)
      ]
  | Zero_rotation { op_index; qubit; gate } ->
    obj "zero_rotation"
      [ ("op_index", Qcec_json.Int op_index)
      ; ("qubit", Qcec_json.Int qubit)
      ; ("gate", Qcec_json.String gate)
      ]
  | Diagonal_run { start; length } ->
    obj "diagonal_run"
      [ ("start", Qcec_json.Int start); ("length", Qcec_json.Int length) ]

let to_json r =
  let count pred = List.length (List.filter pred r.findings) in
  Qcec_json.Obj
    [ ( "cancelling_pairs"
      , Qcec_json.Int
          (count (function Self_inverse_pair _ | Adjoint_pair _ -> true | _ -> false)) )
    ; ( "mergeable_rotations"
      , Qcec_json.Int (count (function Mergeable_rotation _ -> true | _ -> false)) )
    ; ( "zero_rotations"
      , Qcec_json.Int (count (function Zero_rotation _ -> true | _ -> false)) )
    ; ( "diagonal_runs"
      , Qcec_json.Int (count (function Diagonal_run _ -> true | _ -> false)) )
    ; ("findings", Qcec_json.List (List.map finding_to_json r.findings))
    ]

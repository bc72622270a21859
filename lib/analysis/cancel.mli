(** The cancellation/commutation pass.

    Detects local structure the application schemes (and the QA009/QA010
    lint rules) can exploit: adjacent gate pairs that multiply to the
    identity, adjacent same-axis rotations that merge into one, rotations
    by an angle congruent to zero, and runs of diagonal gates (which
    commute freely and have single-path DDs). *)

type finding =
  | Self_inverse_pair of
      { first : int  (** op index of the earlier gate *)
      ; second : int
      ; qubits : int list
      ; gate : string
      }
      (** two adjacent applications of a self-inverse gate (X;X, H;H,
          CX;CX, swap;swap, ...) on the same qubits with no intervening op
          on any of them — they cancel to the identity (QA009) *)
  | Adjoint_pair of
      { first : int
      ; second : int
      ; qubits : int list
      ; gate : string
      }
      (** adjacent gate followed by its adjoint (S;Sdg, T;Tdg,
          rz(a);rz(-a), ...) — cancels, but is not a self-inverse pair *)
  | Mergeable_rotation of
      { first : int
      ; second : int
      ; qubit : int
      ; gate : string
      }
      (** adjacent same-axis rotations on one qubit; their angles add *)
  | Zero_rotation of
      { op_index : int
      ; qubit : int
      ; gate : string
      }
      (** a rotation by an angle congruent to 0 (mod 2 pi) within
          tolerance — the identity up to global phase (QA010) *)
  | Diagonal_run of
      { start : int
      ; length : int
      }
      (** a maximal run of [length >= 2] consecutive diagonal ops *)

type result =
  { findings : finding list
  ; cancels : bool array  (** op is one half of a cancelling pair *)
  ; diagonal : bool array  (** op is diagonal in the computational basis *)
  }

val is_diagonal_op : Circuit.Op.t -> bool

val scan : Circuit.Circ.t -> result

val to_json : result -> Qcec_json.t

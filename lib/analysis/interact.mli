(** The qubit-interaction graph pass.

    Entangling ops (multi-qubit gates, swaps) couple their qubits; the
    resulting graph's connected components bound entanglement spread, and
    a greedy cut-width estimate over it is a static proxy for the width a
    decision diagram can reach during simulation or the alternating
    check. *)

type t =
  { num_qubits : int
  ; edges : ((int * int) * int) list
        (** [(lo, hi)] pairs with multiplicity, sorted *)
  ; entangling_ops : int
  ; components : int array  (** dense component id per qubit *)
  ; num_components : int
  ; cutwidth : int
        (** greedy linear-arrangement cut-width over distinct edges *)
  ; order : int array  (** the qubit order achieving {!field:cutwidth} *)
  }

val of_circ : Circuit.Circ.t -> t

val to_json : t -> Qcec_json.t

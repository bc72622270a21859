(** Decision-diagram based circuit simulation and unitary construction.

    This is the scalable backend (cf. [35] in the paper): circuits over a
    hundred qubits are routinely simulated as long as their states compress
    well. *)

(** [op_unitary p ~n op] is the matrix DD of a unitary operation ([Apply]
    or [Swap]; swaps are built from three CNOTs).  Raises
    [Invalid_argument] on non-unitary operations.  This is the generic
    path kept for tests and A/B comparison; the kernel paths below never
    materialize it. *)
val op_unitary : Dd.Pkg.t -> n:int -> Circuit.Op.t -> Dd.Types.medge

(** [apply_op p ~n state op] applies a unitary operation to a state.
    [use_kernels] (default [true]) routes through the direct
    gate-application kernels ([Mat.apply_gate]); [false] falls back to
    building the full gate DD. *)
val apply_op :
     Dd.Pkg.t
  -> ?use_kernels:bool
  -> n:int
  -> Dd.Types.vedge
  -> Circuit.Op.t
  -> Dd.Types.vedge

(** [mul_op_left p ~use_kernels ~n op m] is [U_op * m]; the kernel path
    applies the gate in place without materializing its DD. *)
val mul_op_left :
     Dd.Pkg.t
  -> use_kernels:bool
  -> n:int
  -> Circuit.Op.t
  -> Dd.Types.medge
  -> Dd.Types.medge

(** [mul_op_right p ~use_kernels ~n op m] is [m * U_op^dagger]; the kernel
    path conjugates the 2x2 entry-wise, with no adjoint pass. *)
val mul_op_right :
     Dd.Pkg.t
  -> use_kernels:bool
  -> n:int
  -> Circuit.Op.t
  -> Dd.Types.medge
  -> Dd.Types.medge

(** [simulate p c] runs a unitary circuit from |0...0> (final measurements
    and barriers are skipped).  Raises [Invalid_argument] on dynamic
    circuits. *)
val simulate : Dd.Pkg.t -> ?use_kernels:bool -> Circuit.Circ.t -> Dd.Types.vedge

(** [build_unitary p c] multiplies all gate DDs into the circuit's system
    matrix.  Raises [Invalid_argument] if [c] contains non-unitary
    operations (strip measurements first). *)
val build_unitary :
  Dd.Pkg.t -> ?use_kernels:bool -> Circuit.Circ.t -> Dd.Types.medge

(** [measured_distribution p state ~n ~measures] marginalizes the final
    state onto the classical bits written by [measures] ([(qubit, cbit)]
    pairs): the result maps a classical assignment (a '0'/'1' string
    indexed by cbit, of length [num_cbits]) to its probability.
    Enumerates only paths with probability above [cutoff]; stops after
    [limit] basis states (default [2^22]). *)
val measured_distribution :
     Dd.Pkg.t
  -> Dd.Types.vedge
  -> n:int
  -> num_cbits:int
  -> measures:(int * int) list
  -> ?cutoff:float
  -> ?limit:int
  -> unit
  -> (string * float) list

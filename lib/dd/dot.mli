(** Graphviz export of decision diagrams, for debugging and documentation. *)

(** [vector p ppf e] prints a DOT digraph of the vector DD rooted at [e]. *)
val vector : Pkg.t -> Format.formatter -> Types.vedge -> unit

(** [matrix p ppf e] prints a DOT digraph of the matrix DD rooted at [e]. *)
val matrix : Pkg.t -> Format.formatter -> Types.medge -> unit

(** [vector_to_file p path e] and [matrix_to_file p path e] write the DOT
    text to [path]. *)
val vector_to_file : Pkg.t -> string -> Types.vedge -> unit

val matrix_to_file : Pkg.t -> string -> Types.medge -> unit

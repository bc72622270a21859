(** Located, machine-readable diagnostics for the circuit static analyzer.

    Every diagnostic carries a stable rule code ([QA001], [QA002], ...; the
    catalogue lives in {!Rules} and is documented in [docs/ANALYSIS.md]), a
    severity, a human-readable message, and an optional source span (file,
    1-based line, op index into [Circ.ops]).  Renders both as compiler-style
    text ([file:line: warning QA001 [unused-qubit]: ...]) and as JSON under
    the [qcec-lint/v1] schema. *)

type severity =
  | Error  (** structurally invalid, or certainly a bug *)
  | Warning  (** suspicious dataflow; the circuit still executes *)
  | Info  (** harmless but redundant structure *)

val severity_label : severity -> string

(** [Info] < [Warning] < [Error]. *)
val severity_rank : severity -> int

type span =
  { file : string option
  ; line : int option  (** 1-based source line, from the parsers *)
  ; op_index : int option  (** index into [Circ.ops] *)
  }

val no_span : span

type t =
  { code : string  (** stable rule code, e.g. ["QA004"] *)
  ; rule : string  (** rule slug, e.g. ["cond-never-written"] *)
  ; severity : severity
  ; message : string
  ; span : span
  }

val make :
     ?file:string
  -> ?line:int
  -> ?op_index:int
  -> code:string
  -> rule:string
  -> severity:severity
  -> string
  -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

type summary =
  { errors : int
  ; warnings : int
  ; infos : int
  }

val summarize : t list -> summary
val has_errors : t list -> bool

(** Program position, then severity (errors first), then code. *)
val sort : t list -> t list

(** {1 [qcec-lint/v1] JSON} *)

val to_json : t -> Qcec_json.t

val summary_json : summary -> Qcec_json.t

(** [report_to_json files] is the full lint report: a [qcec-lint/v1]
    document with one entry per [(file, diagnostics)] pair and per-file and
    overall severity summaries. *)
val report_to_json : (string * t list) list -> Qcec_json.t

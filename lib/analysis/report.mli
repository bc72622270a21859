(** The [qcec-lint/v2] report document.

    v2 is a strict superset of [qcec-lint/v1] (written by
    {!Diagnostic.report_to_json}, which stays unchanged): the top-level
    [schema] string changes, and each file entry gains a ["classifier"]
    block — the {!Classify} profile, per-scheme admissibility, and the
    routed scheme slug — or [null] for files that failed to parse. *)

type entry =
  { file : string
  ; diagnostics : Diagnostic.t list
  ; profile : Classify.profile option
  }

val entry : ?profile:Classify.profile -> string -> Diagnostic.t list -> entry

val to_json : entry list -> Qcec_json.t

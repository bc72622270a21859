(** The results layer: streaming [qcec-result/v1] JSONL and the
    end-of-run [qcec-batch/v1] aggregate. *)

val schema : string

(** [write_jsonl oc r] writes one result line and flushes, so a consumer
    tailing the file sees verdicts as they land.  Serialize calls
    externally when streaming from the pool callback (the pool already
    invokes [on_result] under its lock). *)
val write_jsonl : out_channel -> Job.result -> unit

(** [read_jsonl path] parses a results file back (blank lines are
    skipped); errors carry the 1-based line number. *)
val read_jsonl : string -> (Job.result list, string) result

(** [aggregate batch] is the [qcec-batch/v1] document: job and worker
    counts, wall/cpu seconds, cpu/wall speedup, nearest-rank p50/p95/p99/max
    latencies, per-exit-class counts, and the batch-attributable merged
    metrics and spans. *)
val aggregate : Pool.batch -> Qcec_json.t

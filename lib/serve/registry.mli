(** The daemon's job table: every submission gets an id, a lifecycle state
    and an append-only event log.  Memory stays bounded: only the newest
    finished jobs are kept (see {!create}).

    Events are the SSE source of truth: each carries a job-local,
    monotonically increasing sequence number, so a streaming handler (or a
    reconnecting client with [Last-Event-ID]) asks for "everything after
    seq N" and never drops or duplicates a frame.  All operations are
    mutex-protected; callbacks from worker domains and connection threads
    may interleave freely. *)

module Json = Qcec_json

type state =
  | Queued
  | Running
  | Done
      (** terminal; the job's [qcec-result/v1] document is its [done]
          event (see {!result}) — cancellations surface as a
          [Job.Cancelled] failure *)

type job = private
  { id : string
  ; label : string
  ; submitted : float  (** wall clock, [Unix.gettimeofday] *)
  ; control : Engine.Pool.control  (** cancel handle shared with the pool *)
  ; mutable state : state
  ; mutable events : (int * string * string) list
        (** [(seq, event, data)], newest first; [data] is rendered JSON *)
  ; mutable seq : int
  }

type t

(** [create ?retain ()] makes an empty registry that keeps the [retain]
    most recently finished jobs (default 4096) with their event logs.
    Finishing one more evicts the oldest finished job, so {!find} no
    longer knows its id; queued and running jobs are never evicted.  A
    stream already holding an evicted job still reads its events. *)
val create : ?retain:int -> unit -> t

(** [add t ~label ~control] registers a new job in state [Queued] and
    assigns it the next id ([job-000001], ...). *)
val add : t -> label:string -> control:Engine.Pool.control -> job

val find : t -> string -> job option
val state : t -> job -> state
val state_string : state -> string

(** [emit t j ?state ~event data] appends one event, stamping the next
    sequence number and rendering [data] once: a finished job keeps its
    result only as the text of its [done] event.  With [~state], the job
    moves to that state in the same critical section, so a reader that
    sees the new state also sees the event: a stream that observes [Done]
    always finds the [done] frame. *)
val emit : t -> job -> ?state:state -> event:string -> Json.t -> unit

(** [events_after t j ~seq] — events with sequence number [> seq], oldest
    first, with their data rendered. *)
val events_after : t -> job -> seq:int -> (int * string * string) list

(** [result t j] — the data of the job's [done] event, once it has one. *)
val result : t -> job -> string option

(** Fold over jobs in submission order. *)
val fold : t -> ('a -> job -> 'a) -> 'a -> 'a

(** [(queued, running, done)] totals. *)
val counts : t -> int * int * int

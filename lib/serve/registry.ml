module Json = Qcec_json

type state =
  | Queued
  | Running
  | Done

type job =
  { id : string
  ; label : string
  ; submitted : float
  ; control : Engine.Pool.control
  ; mutable state : state
  ; mutable events : (int * string * string) list (* newest first *)
  ; mutable seq : int
  }

(* Only the [retain] most recently finished jobs are kept; queued and
   running ones always are.  [order] may still list evicted ids: [fold] skips
   them, and [add] drops them once they outnumber the retained jobs, so
   its length stays within twice the table's. *)
type t =
  { lock : Mutex.t
  ; jobs : (string, job) Hashtbl.t
  ; order : string Queue.t (* submission order, for listing *)
  ; finished : string Queue.t (* completion order, oldest first *)
  ; retain : int
  ; mutable counter : int
  }

let default_retain = 4096

let create ?(retain = default_retain) () =
  if retain < 0 then invalid_arg "Registry.create: negative retain";
  { lock = Mutex.create ()
  ; jobs = Hashtbl.create 64
  ; order = Queue.create ()
  ; finished = Queue.create ()
  ; retain
  ; counter = 0
  }

let state_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"

let add t ~label ~control =
  Mutex.protect t.lock (fun () ->
    t.counter <- t.counter + 1;
    let id = Printf.sprintf "job-%06d" t.counter in
    let j =
      { id; label; submitted = Unix.gettimeofday (); control; state = Queued; events = []; seq = 0 }
    in
    Hashtbl.replace t.jobs id j;
    Queue.add id t.order;
    if Queue.length t.order > 2 * Hashtbl.length t.jobs then begin
      let live = Queue.copy t.order in
      Queue.clear t.order;
      Queue.iter (fun id -> if Hashtbl.mem t.jobs id then Queue.add id t.order) live
    end;
    j)

let find t id = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.jobs id)

let emit t j ?state ~event data =
  let data = Json.to_string data in
  Mutex.protect t.lock (fun () ->
    (match (j.state, state) with
     | (Queued | Running), Some Done ->
       Queue.add j.id t.finished;
       if Queue.length t.finished > t.retain then Hashtbl.remove t.jobs (Queue.pop t.finished)
     | _ -> ());
    Option.iter (fun s -> j.state <- s) state;
    j.seq <- j.seq + 1;
    j.events <- (j.seq, event, data) :: j.events)

let state t j = Mutex.protect t.lock (fun () -> j.state)

let events_after t j ~seq =
  Mutex.protect t.lock (fun () ->
    List.fold_left
      (fun acc ((s, _, _) as e) -> if s > seq then e :: acc else acc)
      [] j.events)

let result t j =
  Mutex.protect t.lock (fun () ->
    List.find_map (fun (_, event, data) -> if event = "done" then Some data else None) j.events)

let fold t f init =
  Mutex.protect t.lock (fun () ->
    Queue.fold
      (fun acc id ->
        match Hashtbl.find_opt t.jobs id with
        | Some j -> f acc j
        | None -> acc)
      init t.order)

let counts t =
  fold t
    (fun (q, r, d) j ->
      match j.state with
      | Queued -> (q + 1, r, d)
      | Running -> (q, r + 1, d)
      | Done -> (q, r, d + 1))
    (0, 0, 0)

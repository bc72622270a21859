(* The service workload: a closed loop of [nproc] client threads over
   loopback against an in-process [Serve.Server] with daemon defaults and
   an on-disk verdict store.  Each client alternates a fresh pair (cold:
   parse, lint, DD check, store insert) with a resubmission of that pair
   (warm: answered from the store), and waits for the [done] frame of a
   job's event stream before it submits again. *)

open Common
module Circ = Circuit.Circ
module Op = Circuit.Op
module Pair = Algorithms.Pair
module Server = Serve.Server

(* ------------------------------------------------------------------ *)
(* Request bodies                                                      *)

type body =
  { blabel : string
  ; json : string
  ; known : bool  (** generator-known verdict *)
  ; static : string  (** QASM, for the front-end layer timings *)
  ; dynamic : string
  ; dyn_qubits : int
  }

(* Consecutive diagonal two-qubit phases commute, so shuffling each run of
   them gives a different circuit (and digest) with the same unitary: how
   the QFT family gets distinct fresh pairs. *)
let shuffle_phase_runs st (c : Circ.t) =
  let flush run acc =
    let a = Array.of_list run in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    List.rev_append (Array.to_list a) acc
  in
  let rec go run acc = function
    | (Op.Apply { gate = Circuit.Gates.P _; controls = [ _ ]; _ } as op) :: rest -> go (op :: run) acc rest
    | op :: rest -> go [] (op :: flush run acc) rest
    | [] -> List.rev (flush run acc)
  in
  { c with Circ.ops = go [] [] c.Circ.ops }

(* The [idx]-th fresh pair of a run: BV, QFT or QPE at a small size, every
   eighth one a phase mutant whose answer is "not equivalent". *)
let make_pair ~seed idx =
  let st = Random.State.make [| seed; idx; 0x5e7 |] in
  let family = idx mod 4 in
  let pair, name =
    match family with
    | 0 | 1 ->
      let n = 8 + Random.State.int st 9 in
      (Inproc.bv ~seed:(Random.State.bits st) n, Printf.sprintf "bv%d" n)
    | 2 ->
      let n = 4 + Random.State.int st 6 in
      let p = Algorithms.Qft.make n in
      ({ p with Pair.static_circuit = shuffle_phase_runs st p.Pair.static_circuit }, Printf.sprintf "qft%d" n)
    | _ ->
      let bits = 3 + Random.State.int st 4 in
      let theta = Random.State.float st 1.0 in
      (Algorithms.Qpe.make ~theta ~bits, Printf.sprintf "qpe%d" bits)
  in
  let mutant = idx mod 8 = 5 in
  let static = if mutant then Inproc.phase_mutant pair.Pair.static_circuit else pair.Pair.static_circuit in
  (static, pair, Printf.sprintf "%s_%d%s" name idx (if mutant then "_mut" else ""), not mutant)

let body_of ~seed idx =
  let static, pair, blabel, known = make_pair ~seed idx in
  let a = Circuit.Qasm_printer.to_string static in
  let b = Circuit.Qasm_printer.to_string pair.Pair.dynamic_circuit in
  let json =
    Json.to_string
      (Json.Obj
         [ ("a", Json.String a)
         ; ("b", Json.String b)
         ; ("perm", Json.List (Array.to_list (Array.map (fun i -> Json.Int i) pair.Pair.dyn_to_static)))
         ; ("label", Json.String blabel)
         ])
  in
  { blabel; json; known; static = a; dynamic = b; dyn_qubits = pair.Pair.dynamic_circuit.Circ.num_qubits }

(* Fresh pairs must never repeat within a run, or a "cold" request would
   be answered from the store. *)
type source =
  { seed : int
  ; mutable next : int
  ; seen : (string, unit) Hashtbl.t
  ; pregen : body Queue.t
  ; slock : Mutex.t
  }

let rec fresh_unlocked src =
  match Queue.take_opt src.pregen with
  | Some b -> b
  | None ->
    let idx = src.next in
    src.next <- idx + 1;
    let b = body_of ~seed:src.seed idx in
    let k = b.static ^ "\000" ^ b.dynamic in
    if Hashtbl.mem src.seen k then fresh_unlocked src
    else begin
      Hashtbl.add src.seen k ();
      b
    end

let fresh src = Mutex.protect src.slock (fun () -> fresh_unlocked src)

let new_source ~seed ~pregen =
  let src = { seed; next = 0; seen = Hashtbl.create 1024; pregen = Queue.create (); slock = Mutex.create () } in
  let bodies = List.init pregen (fun _ -> fresh_unlocked src) in
  List.iter (fun b -> Queue.add b src.pregen) bodies;
  (src, bodies)

(* ------------------------------------------------------------------ *)
(* A minimal HTTP/1.1 client (the server closes every connection)      *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  fd

let send ?(headers = "") fd ~meth ~path body =
  Serve.Http.write_all fd
    (Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\n%sContent-Length: %d\r\n\r\n%s" meth path
       headers (String.length body) body)

let status_of head =
  try Scanf.sscanf head "HTTP/1.1 %d" Fun.id with _ -> 0

let find_sub s sub ~from =
  let n = String.length s and k = String.length sub in
  let rec go i = if i + k > n then None else if String.sub s i k = sub then Some i else go (i + 1) in
  go from

(* Reads until [stop buf] holds or the peer closes; returns the bytes. *)
let read_until fd stop =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec go () =
    if not (stop buf) then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents buf

let request port ~meth ~path body =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      send fd ~meth ~path body;
      let raw = read_until fd (fun _ -> false) in
      match find_sub raw "\r\n\r\n" ~from:0 with
      | Some i -> (status_of raw, String.sub raw (i + 4) (String.length raw - i - 4))
      | None -> (status_of raw, ""))

type done_frame =
  { equivalent : bool option  (** [None]: the job failed *)
  ; cached : bool
  ; duration : float
  ; t_transform : float
  ; transformed_qubits : int
  ; peak_nodes : int
  }

let frame_of_json j =
  let bool k = match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None in
  let num k =
    match Json.member k j with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> 0.0
  in
  { equivalent = bool "equivalent"
  ; cached = Option.value (bool "cached") ~default:false
  ; duration = num "duration_seconds"
  ; t_transform = num "t_transform"
  ; transformed_qubits = int_of_float (num "transformed_qubits")
  ; peak_nodes = int_of_float (num "peak_nodes")
  }

(* Reads one connection to the job's event stream, resuming after event
   [last]; returns the events it delivered. *)
let read_events port id ~last =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let headers = if last > 0 then Printf.sprintf "Last-Event-ID: %d\r\n" last else "" in
      send ~headers fd ~meth:"GET" ~path:(Printf.sprintf "/v1/jobs/%s/events" id) "";
      let complete buf =
        let s = Buffer.contents buf in
        match find_sub s "event: done\n" ~from:0 with
        | Some i -> find_sub s "\n\n" ~from:i <> None
        | None -> false
      in
      let raw = read_until fd complete in
      match find_sub raw "\r\n\r\n" ~from:0 with
      | Some i -> Serve.Sse.decode (String.sub raw (i + 4) (String.length raw - i - 4))
      | None -> [])

(* A job's stream closes without its [done] frame a handful of times at
   most (see NOTES.md); more than this many closes is a failed operation. *)
let max_closes = 50

(* Follows the job's event stream to its [done] frame.  When the server
   closes the stream without that frame, the client reconnects with
   [Last-Event-ID], as a server-sent-events client does.  Returns the frame
   ([None] after [max_closes] closes or an unreadable frame) and the number
   of streams that closed without it. *)
let await_done port id =
  let rec go ~last ~closes =
    let events = read_events port id ~last in
    match List.find_opt (fun (e : Serve.Sse.event) -> e.Serve.Sse.event = Some "done") events with
    | Some e -> (Option.map frame_of_json (Json.of_string_opt e.Serve.Sse.data), closes)
    | None when closes + 1 >= max_closes -> (None, closes + 1)
    | None ->
      let last = List.fold_left (fun a (e : Serve.Sse.event) -> max a (Option.value e.Serve.Sse.id ~default:0)) last events in
      go ~last ~closes:(closes + 1)
  in
  go ~last:0 ~closes:0

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)

(* Per-request detail kept beside the shared operation log. *)
type sample =
  { s_warm : bool
  ; submit_s : float
  ; total_s : float
  ; frame : done_frame
  ; s_dyn_qubits : int
  ; s_factor : float  (** host-speed factor of the client when it submitted *)
  }

type stats =
  { mutable samples : sample list
  ; mutable no_done : int
  ; mutable refused : int
  ; stlock : Mutex.t
  }

let new_stats () = { samples = []; no_done = 0; refused = 0; stlock = Mutex.create () }

(* One submission and its event stream, recorded as one operation; a
   connection error counts as a failed operation. *)
let rec one log stats port (b : body) ~warm ~factor =
  try one_exn log stats port b ~warm ~factor
  with Unix.Unix_error _ ->
    record log
      { label = b.blabel; expected = b.known; got = None; latency = 0.0; check_s = 0.0; factor = 1.0; warm }

and one_exn log stats port (b : body) ~warm ~factor =
  let t0 = now () in
  let status, reply = request port ~meth:"POST" ~path:"/v1/jobs" b.json in
  let submit_s = now () -. t0 in
  let failed () =
    record log
      { label = b.blabel; expected = b.known; got = None; latency = now () -. t0; check_s = 0.0; factor = 1.0; warm }
  in
  if status <> 202 then begin
    Mutex.protect stats.stlock (fun () -> stats.refused <- stats.refused + 1);
    failed ()
  end
  else
    let id =
      match Option.bind (Json.of_string_opt reply) (Json.member "id") with
      | Some (Json.String id) -> id
      | _ -> failwith ("submission reply without an id: " ^ reply)
    in
    let frame, closes = await_done port id in
    if closes > 0 then Mutex.protect stats.stlock (fun () -> stats.no_done <- stats.no_done + closes);
    match frame with
    | None -> failed ()
    | Some d ->
      let total_s = now () -. t0 in
      record log
        { label = b.blabel
        ; expected = b.known
        ; got = d.equivalent
        ; latency = total_s
        ; check_s = d.duration
        ; factor = 1.0
        ; warm = d.cached
        };
      Mutex.protect stats.stlock (fun () ->
        stats.samples <-
          { s_warm = d.cached; submit_s; total_s; frame = d; s_dyn_qubits = b.dyn_qubits; s_factor = factor } :: stats.samples)

(* A pass is [couples] fresh/resubmit couples from one client. *)
let couples = 10

(* Before each pass the client times the host-speed reference (see
   {!Calib}) and scales the durations of the pass's jobs by the median of
   its last three timings.  Taken under the load, the reference sees the
   contention the jobs see; taken while the clients were idle, the scaled
   job durations spread by 30% between runs. *)
let client log stats port src ~deadline ~passes () =
  let recent = ref [] in
  let rec loop k =
    let stop =
      match passes with
      | Some p -> k >= p
      | None -> now () >= deadline
    in
    if not stop then begin
      recent := Calib.time () :: List.filteri (fun i _ -> i < 2) !recent;
      let factor = Calib.factor !recent in
      let t0 = now () in
      for _ = 1 to couples do
        let b = fresh src in
        one log stats port b ~warm:false ~factor;
        one log stats port b ~warm:true ~factor
      done;
      record_pass log ~wall:(now () -. t0);
      loop (k + 1)
    end
  in
  loop 0

(* Runs the clients; [passes] fixes the passes per client instead of the
   time budget.  Returns the timed wall. *)
let run_clients ?passes log stats port src ~seconds =
  let t0 = now () in
  let deadline = t0 +. seconds in
  let threads =
    List.init (nproc ()) (fun _ -> Thread.create (client log stats port src ~deadline ~passes) ())
  in
  List.iter Thread.join threads;
  now () -. t0

(* ------------------------------------------------------------------ *)
(* Server and store lifecycle                                          *)

let tmp_counter = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A fresh directory inside the benchmark's build directory. *)
let fresh_dir tag =
  incr tmp_counter;
  let root = Option.value (Sys.getenv_opt "PERFBENCH_TMP") ~default:".bench_build" in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  let dir = Filename.concat root (Printf.sprintf "perfbench-%s-%d-%d" tag (Unix.getpid ()) !tmp_counter) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

type instance =
  { server : Server.t
  ; store : Cache_store.Store.t
  ; dir : string
  }

let start ~stats =
  let dir = fresh_dir "store" in
  let store =
    match Cache_store.Store.open_dir dir with
    | Ok s -> s
    | Error e -> failwith ("cannot open the verdict store: " ^ e)
  in
  let server = Server.start { Server.default_config with Server.stats; cache = Some store } in
  { server; store; dir }

let stop i =
  Server.stop i.server;
  Cache_store.Store.close i.store;
  rm_rf i.dir

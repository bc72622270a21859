module M = Obs.Metrics

type meters =
  { hits : M.counter
  ; misses : M.counter
  ; publishes : M.counter
  }

(* A table is an array of buckets, each an immutable association list
   behind an [Atomic.t].  A publish replaces one bucket's list; a reader
   loads the table, then the bucket, and walks a list no one mutates.
   Growing builds a new table and swaps it in whole, so a reader still
   holding the old one sees every binding published before the swap. *)
type ('k, 'v) table = ('k * 'v) list Atomic.t array

type ('k, 'v) t =
  { table : ('k, 'v) table Atomic.t
  ; count : int Atomic.t
  ; lock : Mutex.t (* serializes publishes *)
  ; meters : meters option
  }

let initial_buckets = 16

let make_table n : ('k, 'v) table = Array.init n (fun _ -> Atomic.make [])

let[@inline] bucket (tbl : ('k, 'v) table) k = tbl.(Hashtbl.hash k land (Array.length tbl - 1))

let create ?metrics () =
  { table = Atomic.make (make_table initial_buckets)
  ; count = Atomic.make 0
  ; lock = Mutex.create ()
  ; meters =
      Option.map
        (fun p ->
          { hits = M.counter (p ^ ".hits")
          ; misses = M.counter (p ^ ".misses")
          ; publishes = M.counter (p ^ ".publishes")
          })
        metrics
  }

let find t k =
  let r = List.assoc_opt k (Atomic.get (bucket (Atomic.get t.table) k)) in
  (match (t.meters, r) with
   | Some m, Some _ -> M.incr m.hits
   | Some m, None -> M.incr m.misses
   | None, _ -> ());
  r

(* doubles the table once it holds two bindings per bucket *)
let grow (tbl : ('k, 'v) table) =
  let next = make_table (2 * Array.length tbl) in
  Array.iter
    (fun b ->
      List.iter
        (fun ((k, _) as kv) ->
          let nb = bucket next k in
          Atomic.set nb (kv :: Atomic.get nb))
        (Atomic.get b))
    tbl;
  next

let publish t k v =
  Mutex.protect t.lock (fun () ->
      let tbl = Atomic.get t.table in
      let tbl =
        if Atomic.get t.count >= 2 * Array.length tbl then begin
          let next = grow tbl in
          Atomic.set t.table next;
          next
        end
        else tbl
      in
      let b = bucket tbl k in
      let l = Atomic.get b in
      if List.mem_assoc k l then Atomic.set b ((k, v) :: List.remove_assoc k l)
      else begin
        Atomic.set b ((k, v) :: l);
        Atomic.incr t.count
      end);
  match t.meters with Some m -> M.incr m.publishes | None -> ()

let size t = Atomic.get t.count

let clear t =
  Mutex.protect t.lock (fun () ->
      Atomic.set t.table (make_table initial_buckets);
      Atomic.set t.count 0)

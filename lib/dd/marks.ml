(* Visited marks for node walks.  Each domain owns one int array indexed by
   node id; a node counts as visited in the current walk when its slot holds
   the walk's epoch.  Starting a walk bumps the epoch, so nothing is ever
   cleared, and a walk allocates nothing unless a node id outgrows the
   array.  Node ids are per package and never reused, so the array grows to
   the largest id walked in the domain. *)

type t =
  { mutable stamps : int array
  ; mutable epoch : int
  }

let initial_length = 4096

let key = Domain.DLS.new_key (fun () -> { stamps = Array.make initial_length 0; epoch = 0 })

let start () =
  let m = Domain.DLS.get key in
  m.epoch <- m.epoch + 1;
  m

let grow m id =
  let len = ref (Array.length m.stamps) in
  while !len <= id do
    len := 2 * !len
  done;
  let stamps = Array.make !len 0 in
  Array.blit m.stamps 0 stamps 0 (Array.length m.stamps);
  m.stamps <- stamps

let[@inline] visit m id =
  if id >= Array.length m.stamps then grow m id;
  if Array.unsafe_get m.stamps id = m.epoch then false
  else begin
    Array.unsafe_set m.stamps id m.epoch;
    true
  end

let length () = Array.length (Domain.DLS.get key).stamps

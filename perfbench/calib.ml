(* Host-speed reference.  The hosts this benchmark runs on slow plain code
   down by up to 1.75x, in spells of seconds to minutes, so raw timings of
   the same work spread by 20-40% between runs.  The reference is a fixed
   computation owned by the benchmark, of the kind the verifier's inner
   loops are made of: hash-consing small records in a polymorphic hash
   table, with float arithmetic and short-lived allocation.  Timing it just
   before each operation tells how fast the host runs such code at that
   moment; timings are reported scaled by [nominal_s] over the median of
   nearby reference timings. *)

type node =
  { lo : int
  ; hi : int
  ; w : float
  }

let run () =
  let tbl : (int * int, node) Hashtbl.t = Hashtbl.create 1024 in
  let acc = ref 0.0 in
  for i = 0 to 40_000 do
    let k = ((i * 7919) land 32767, (i * 104729) land 16383) in
    match Hashtbl.find_opt tbl k with
    | Some n -> acc := !acc +. n.w
    | None -> Hashtbl.replace tbl k { lo = fst k; hi = snd k; w = sqrt (float_of_int (i + 1)) }
  done;
  !acc

(* the reference's duration on an unloaded 2-core host *)
let nominal_s = 0.015

(* seconds one run of the reference takes now *)
let time () =
  let t0 = Common.now () in
  ignore (Sys.opaque_identity (run ()));
  Common.now () -. t0

(* the factor that scales timings taken while the reference took [times]
   to the nominal host speed *)
let factor times = nominal_s /. Common.median times

let recent = ref []

(* Times the reference once more and returns the factor for a timing
   taken now. *)
let sample () =
  recent := time () :: List.filteri (fun i _ -> i < 2) !recent;
  factor !recent

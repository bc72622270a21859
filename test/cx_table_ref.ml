(* Reference interning table: the list-based probe that [Cxnum.Cx_table]
   replaced, kept verbatim in behaviour as the oracle for the differential
   test in [Test_cx].  It materializes all 27 probe keys per lookup and
   probes a polymorphic [Hashtbl]; ids, representatives and sizes of the
   production table must agree with it on every lookup and rebuild. *)

module Cx = Cxnum.Cx

type value = { re : float; im : float; id : int }

let zero = { re = 0.0; im = 0.0; id = 0 }
let one = { re = 1.0; im = 0.0; id = 1 }

type t =
  { tol : float
  ; buckets : (int * int * int, value list ref) Hashtbl.t
  ; mutable next_id : int
  ; mutable count : int
  }

let hard_zero = 1e-250

let magnitude (z : Cx.t) = Float.max (Float.abs z.Cx.re) (Float.abs z.Cx.im)

let exponent_of m =
  let _, e = Float.frexp m in
  e

let key_at t (z : Cx.t) e =
  let s = Float.ldexp 1.0 e in
  ( e
  , int_of_float (Float.round (z.Cx.re /. s /. t.tol))
  , int_of_float (Float.round (z.Cx.im /. s /. t.tol)) )

let create ?(tol = 1e-10) () = { tol; buckets = Hashtbl.create 4096; next_id = 2; count = 2 }

let matches t (z : Cx.t) (v : value) =
  let scale = Float.max (magnitude z) (Float.max (Float.abs v.re) (Float.abs v.im)) in
  Float.abs (v.re -. z.Cx.re) <= t.tol *. scale
  && Float.abs (v.im -. z.Cx.im) <= t.tol *. scale

let find_in_bucket t key z =
  match Hashtbl.find_opt t.buckets key with
  | None -> None
  | Some cell -> List.find_opt (matches t z) !cell

let insert t key v =
  t.count <- t.count + 1;
  match Hashtbl.find_opt t.buckets key with
  | Some cell -> cell := v :: !cell
  | None -> Hashtbl.add t.buckets key (ref [ v ])

let lookup t (z : Cx.t) =
  let m = magnitude z in
  if m < hard_zero then zero
  else if z.Cx.re = 1.0 && z.Cx.im = 0.0 then one
  else begin
    let e = exponent_of m in
    let probes =
      List.concat_map
        (fun de ->
          let e' = e + de in
          let ke, kre, kim = key_at t z e' in
          List.concat_map
            (fun dre -> List.map (fun dim -> (ke, kre + dre, kim + dim)) [ 0; 1; -1 ])
            [ 0; 1; -1 ])
        [ 0; 1; -1 ]
    in
    let rec probe = function
      | [] ->
        if matches t z one then one
        else begin
          let v = { re = z.Cx.re; im = z.Cx.im; id = t.next_id } in
          t.next_id <- t.next_id + 1;
          insert t (key_at t z e) v;
          v
        end
      | key :: rest ->
        (match find_in_bucket t key z with
         | Some v -> v
         | None -> probe rest)
    in
    probe probes
  end

let size t = t.count

let rebuild t survivors =
  Hashtbl.reset t.buckets;
  t.count <- 2;
  List.iter
    (fun (v : value) ->
      if v.id > 1 then begin
        let z = Cx.make v.re v.im in
        insert t (key_at t z (exponent_of (magnitude z))) v
      end)
    survivors

(* Reference normalization and scaling: the arithmetic [Dd.Pkg.make_mnode],
   [make_vnode], [mscale] and [vscale] ran before they gained their
   identity fast paths, kept as the oracle for the differential test in
   [Test_dd].  Written on the public [Pkg.weight] API, it divides or
   multiplies every weight, including by exactly 1, and interns every
   result.  Instead of hash-consing, the node functions return the
   normalized successor edges and the factor the production code must
   produce, or [None] for the zero edge. *)

open Dd.Types
module Cx = Cxnum.Cx
module Ct = Cxnum.Cx_table

let wcx = Ct.to_cx

let mnode p e00 e01 e10 e11 =
  let edges = [| e00; e01; e10; e11 |] in
  let mags = Array.map (fun e -> Cx.abs (wcx e.mw)) edges in
  let mmax = Array.fold_left Float.max 0.0 mags in
  if Array.for_all medge_is_zero edges then None
  else if not (Float.is_finite mmax) then invalid_arg "Normalize_ref.mnode"
  else begin
    let rec lead_index k =
      if mags.(k) >= mmax *. (1.0 -. 1e-9) then k else lead_index (k + 1)
    in
    let k = lead_index 0 in
    let factor = wcx edges.(k).mw in
    let renorm idx e =
      if medge_is_zero e then Dd.Pkg.mzero
      else if idx = k then { mw = Dd.Pkg.w_one; mt = e.mt }
      else begin
        let w' = Cx.div (wcx e.mw) factor in
        if Cx.abs w' <= Dd.Pkg.tol p then Dd.Pkg.mzero
        else { mw = Dd.Pkg.weight p w'; mt = e.mt }
      end
    in
    let succ = Array.mapi renorm edges in
    Some (succ, Dd.Pkg.weight p factor)
  end

let vnode p e0 e1 =
  if vedge_is_zero e0 && vedge_is_zero e1 then None
  else begin
    let w0 = wcx e0.vw and w1 = wcx e1.vw in
    let norm = Float.sqrt (Cx.abs2 w0 +. Cx.abs2 w1) in
    let lead = if Cx.abs w0 > Dd.Pkg.tol p *. norm then w0 else w1 in
    let phase = Cx.scale (1.0 /. Cx.abs lead) lead in
    let factor = Cx.scale norm phase in
    let renorm w e =
      if vedge_is_zero e then Dd.Pkg.vzero
      else begin
        let w' = Cx.div w factor in
        if Cx.abs w' <= Dd.Pkg.tol p then Dd.Pkg.vzero
        else { vw = Dd.Pkg.weight p w'; vt = e.vt }
      end
    in
    let e0' = renorm w0 e0 and e1' = renorm w1 e1 in
    if vedge_is_zero e0' && vedge_is_zero e1' then None
    else Some ([| e0'; e1' |], Dd.Pkg.weight p factor)
  end

let vscale p z e =
  if vedge_is_zero e then Dd.Pkg.vzero
  else begin
    let w = Dd.Pkg.weight p (Cx.mul z (wcx e.vw)) in
    if Ct.is_zero w then Dd.Pkg.vzero else { vw = w; vt = e.vt }
  end

let mscale p z e =
  if medge_is_zero e then Dd.Pkg.mzero
  else begin
    let w = Dd.Pkg.weight p (Cx.mul z (wcx e.mw)) in
    if Ct.is_zero w then Dd.Pkg.mzero else { mw = w; mt = e.mt }
  end

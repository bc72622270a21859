(* Complex kernel and tolerance-interning tests. *)

module Cx = Cxnum.Cx
module Ct = Cxnum.Cx_table

let test_constants () =
  Util.check_cx "one" (Cx.make 1.0 0.0) Cx.one;
  Util.check_cx "i*i" Cx.minus_one (Cx.mul Cx.i Cx.i);
  Util.check_float "sqrt2_inv" (1.0 /. Float.sqrt 2.0) Cx.sqrt2_inv

let test_arithmetic () =
  let a = Cx.make 1.5 (-2.0) and b = Cx.make (-0.25) 3.0 in
  Util.check_cx "add" (Cx.make 1.25 1.0) (Cx.add a b);
  Util.check_cx "sub" (Cx.make 1.75 (-5.0)) (Cx.sub a b);
  Util.check_cx "mul" (Cx.make 5.625 5.0) (Cx.mul a b);
  Util.check_cx "div-roundtrip" a (Cx.mul (Cx.div a b) b);
  Util.check_cx "inv" Cx.one (Cx.mul a (Cx.inv a));
  Util.check_cx "conj-involution" a (Cx.conj (Cx.conj a));
  Util.check_float "abs2" (Cx.abs2 a) (Cx.abs a *. Cx.abs a)

let test_e_i_pi_exact () =
  (* multiples of pi/4 must be bit-exact *)
  let v = Cx.e_i_pi 0.0 in
  Alcotest.(check bool) "e^0 exact" true (v = Cx.one);
  let v = Cx.e_i_pi 1.0 in
  Alcotest.(check bool) "e^{i pi} exact" true (v = Cx.minus_one);
  let v = Cx.e_i_pi 0.5 in
  Alcotest.(check bool) "e^{i pi/2} exact" true (v = Cx.i);
  let v = Cx.e_i_pi 0.25 in
  Util.check_cx "e^{i pi/4}" (Cx.make Cx.sqrt2_inv Cx.sqrt2_inv) v;
  Alcotest.(check bool) "components exact"
    true
    (v.Cx.re = Cx.sqrt2_inv && v.Cx.im = Cx.sqrt2_inv);
  (* negative arguments and periodicity *)
  Util.check_cx "e^{-i pi/2}" (Cx.neg Cx.i) (Cx.e_i_pi (-0.5));
  Util.check_cx "periodicity" (Cx.e_i_pi 0.3) (Cx.e_i_pi 2.3)

let test_polar () =
  let z = Cx.polar 2.0 (Float.pi /. 6.0) in
  Util.check_float "polar abs" 2.0 (Cx.abs z);
  Util.check_float "polar arg" (Float.pi /. 6.0) (Cx.arg z);
  Util.check_cx "sqrt" z (Cx.mul (Cx.sqrt z) (Cx.sqrt z))

let test_table_identifies_close_values () =
  let t = Ct.create ~tol:1e-10 ()
  in
  let a = Ct.lookup t (Cx.make 0.5 0.25) in
  let b = Ct.lookup t (Cx.make (0.5 +. 1e-12) (0.25 -. 1e-12)) in
  Alcotest.(check int) "same id for close values" a.Ct.id b.Ct.id;
  let c = Ct.lookup t (Cx.make 0.5001 0.25) in
  Alcotest.(check bool) "distinct id for far values" true (a.Ct.id <> c.Ct.id)

let test_table_relative_scale () =
  (* values at magnitude 1e-20 must intern non-zero and identify relatively *)
  let t = Ct.create () in
  let tiny = 5.4e-20 in
  let a = Ct.lookup t (Cx.make tiny 0.0) in
  Alcotest.(check bool) "tiny value is not zero" false (Ct.is_zero a);
  let b = Ct.lookup t (Cx.make (tiny *. (1.0 +. 1e-12)) 0.0) in
  Alcotest.(check int) "relative identification at 1e-20" a.Ct.id b.Ct.id;
  let c = Ct.lookup t (Cx.make (tiny *. 1.001) 0.0) in
  Alcotest.(check bool) "relative distinction at 1e-20" true (a.Ct.id <> c.Ct.id)

let test_table_zero_one () =
  let t = Ct.create () in
  Alcotest.(check bool) "0 interns to zero" true (Ct.is_zero (Ct.lookup t Cx.zero));
  Alcotest.(check bool) "1 interns to one" true (Ct.is_one (Ct.lookup t Cx.one));
  let near_one = Ct.lookup t (Cx.make (1.0 +. 1e-13) 1e-13) in
  Alcotest.(check bool) "value near 1 interns to one" true (Ct.is_one near_one);
  let sub = Ct.lookup t (Cx.make 1e-300 0.0) in
  Alcotest.(check bool) "below hard floor is zero" true (Ct.is_zero sub)

let prop_interning_idempotent =
  QCheck.Test.make ~name:"interning is idempotent" ~count:500
    QCheck.(pair (float_range (-2.0) 2.0) (float_range (-2.0) 2.0))
    (fun (re, im) ->
      let t = Ct.create () in
      let a = Ct.lookup t (Cx.make re im) in
      let b = Ct.lookup t (Ct.to_cx a) in
      a.Ct.id = b.Ct.id)

(* Differential oracle: the in-place table against the list-based probe it
   replaced ([Cx_table_ref]).  Both see the same stream of lookups and
   rebuilds; every lookup must return the same id and bit-identical
   components, and the sizes must agree throughout.  The stream is biased
   towards the places a probe rewrite can go wrong: magnitudes within a few
   tol of a power of two (the exponent skip), components on grid-cell
   half-boundaries (the neighbour cells), jittered near-duplicates of
   earlier values (first-match order within and across cells), and
   rebuilds with shuffled survivor subsets (cell order after GC). *)
module Ref = Cx_table_ref

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let differential_stream ~tol ~seed ~ops =
  let rng = Random.State.make [| seed |] in
  let t = Ct.create ~tol () and r = Ref.create ~tol () in
  let seen = Hashtbl.create 64 in
  let history = ref [||] and n_hist = ref 0 in
  let remember z =
    if !n_hist = Array.length !history then
      history := Array.append !history (Array.make (max 16 !n_hist) Cx.zero);
    !history.(!n_hist) <- z;
    incr n_hist
  in
  let sign () = if Random.State.bool rng then 1.0 else -1.0 in
  let uniform lo hi = lo +. Random.State.float rng (hi -. lo) in
  let exponent () = Random.State.int rng 80 - 40 in
  (* a dominant component of magnitude [mag], the other smaller, in either
     position *)
  let place mag =
    let other = sign () *. mag *. Random.State.float rng 1.0 in
    if Random.State.bool rng then Cx.make (sign () *. mag) other
    else Cx.make other (sign () *. mag)
  in
  let near_power_of_two () =
    (* |mag / 2^e - 1| up to 5 tol, plus a few ulps either side of the
       4 tol skip margin *)
    let f =
      match Random.State.int rng 3 with
      | 0 -> 1.0 +. (uniform (-5.0) 5.0 *. tol)
      | 1 -> 1.0 -. (4.0 *. tol) +. (float_of_int (Random.State.int rng 17 - 8) *. epsilon_float)
      | _ -> 1.0 +. (4.0 *. tol) +. (float_of_int (Random.State.int rng 17 - 8) *. epsilon_float)
    in
    place (Float.ldexp f (exponent ()))
  in
  let half_boundary () =
    let z = place (Float.ldexp (uniform 0.5 1.0) (exponent ())) in
    let m = Float.max (Float.abs z.Cx.re) (Float.abs z.Cx.im) in
    let s = Float.ldexp 1.0 (snd (Float.frexp m)) *. tol in
    let snap x =
      let jitter = float_of_int (Random.State.int rng 5 - 2) *. 1e-3 in
      (Float.round (x /. s) +. 0.5 +. jitter) *. s
    in
    if Random.State.bool rng then Cx.make (snap z.Cx.re) z.Cx.im
    else Cx.make (snap z.Cx.re) (snap z.Cx.im)
  in
  let near_duplicate () =
    if !n_hist = 0 then near_power_of_two ()
    else
      let z = !history.(Random.State.int rng !n_hist) in
      let d () = uniform (-2.0) 2.0 *. tol in
      Cx.make (z.Cx.re *. (1.0 +. d ())) (z.Cx.im *. (1.0 +. d ()))
  in
  let special () =
    match Random.State.int rng 4 with
    | 0 -> Cx.zero
    | 1 -> Cx.make (1.0 +. (uniform (-2.0) 2.0 *. tol)) (uniform (-1.0) 1.0 *. tol)
    | 2 -> Cx.make 1e-260 (-1e-255)
    | _ -> Cx.make (uniform (-2.0) 2.0) (uniform (-2.0) 2.0)
  in
  let ok = ref true in
  let check_lookup z =
    let a = Ct.lookup t z and b = Ref.lookup r z in
    if not (a.Ct.id = b.Ref.id && same_float a.Ct.re b.Ref.re && same_float a.Ct.im b.Ref.im)
    then ok := false;
    if a.Ct.id = b.Ref.id then Hashtbl.replace seen a.Ct.id (a, b);
    remember z
  in
  let rebuild () =
    let live = Hashtbl.fold (fun _ p acc -> p :: acc) seen [] |> Array.of_list in
    (* Fisher-Yates, then keep a random prefix *)
    for i = Array.length live - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = live.(i) in
      live.(i) <- live.(j);
      live.(j) <- x
    done;
    let keep = Array.sub live 0 (Random.State.int rng (Array.length live + 1)) in
    Ct.rebuild t (Array.to_list (Array.map fst keep));
    Ref.rebuild r (Array.to_list (Array.map snd keep))
  in
  for _ = 1 to ops do
    (match Random.State.int rng 100 with
     | k when k < 30 -> check_lookup (near_power_of_two ())
     | k when k < 55 -> check_lookup (half_boundary ())
     | k when k < 90 -> check_lookup (near_duplicate ())
     | k when k < 98 -> check_lookup (special ())
     | _ -> rebuild ());
    if Ct.size t <> Ref.size r then ok := false
  done;
  !ok

(* tol = 0.4 is the one tolerance at which both neighbouring exponents can
   hold a match (that needs 2 (1 - tol)^2 < 1), so only it observes the
   e+1-before-e-1 order *)
let prop_matches_reference =
  QCheck.Test.make ~name:"interning matches the list-based reference" ~count:200
    QCheck.(pair (oneofl [ 1e-10; 1e-6; 1e-3; 0.05; 0.4 ]) (int_bound 1_000_000))
    (fun (tol, seed) -> differential_stream ~tol ~seed ~ops:600)

(* The exponent skip must never hide a match.  A value stored at 2^e lives
   under exponent e+1; a lookup of 2^e (1 - k tol) lives under e and
   matches it exactly when k <= 1.  A value stored just below 2^(e-1)
   lives under e-1; a lookup of 2^(e-1) (1 + k tol) lives under e and, the
   scale being its own magnitude, matches it when k <= 1 / (1 - tol).
   Every case must also agree with the reference table. *)
let test_exponent_skip_bound () =
  List.iter
    (fun tol ->
      List.iter
        (fun k ->
          List.iter
            (fun e ->
              let up_stored = Cx.make (Float.ldexp 1.0 e) 0.0 in
              let up_query = Cx.make (Float.ldexp (1.0 -. (k *. tol)) e) 0.0 in
              let down_stored = Cx.make 0.0 (Float.ldexp (Float.pred 1.0) (e - 1)) in
              let down_query = Cx.make 0.0 (Float.ldexp (1.0 +. (k *. tol)) (e - 1)) in
              List.iter
                (fun (dir, stored, query, k_max) ->
                  let t = Ct.create ~tol () and r = Ref.create ~tol () in
                  let s = Ct.lookup t stored in
                  ignore (Ref.lookup r stored);
                  let q = Ct.lookup t query and q' = Ref.lookup r query in
                  let name = Printf.sprintf "%s tol=%g k=%g e=%d" dir tol k e in
                  Alcotest.(check int) (name ^ ": same as reference") q'.Ref.id q.Ct.id;
                  if k <= 0.999 *. k_max then
                    Alcotest.(check int) (name ^ ": matched across exponents") s.Ct.id q.Ct.id;
                  if k >= 1.001 *. k_max then
                    Alcotest.(check bool) (name ^ ": distinct") true (s.Ct.id <> q.Ct.id))
                [ ("up", up_stored, up_query, 1.0)
                ; ("down", down_stored, down_query, 1.0 /. (1.0 -. tol))
                ])
            [ -30; -1; 0; 3 ])
        [ 0.0; 0.5; 0.999; 1.001; 2.0; 3.99; 4.0; 4.01; 5.0 ])
    [ 1e-10; 1e-6; 1e-3; 0.05 ]

let prop_mul_commutes =
  QCheck.Test.make ~name:"multiplication commutes" ~count:500
    QCheck.(
      quad (float_range (-2.) 2.) (float_range (-2.) 2.) (float_range (-2.) 2.)
        (float_range (-2.) 2.))
    (fun (a, b, c, d) ->
      let x = Cx.make a b and y = Cx.make c d in
      Util.cx_close (Cx.mul x y) (Cx.mul y x))

let prop_abs_multiplicative =
  QCheck.Test.make ~name:"|xy| = |x||y|" ~count:500
    QCheck.(
      quad (float_range (-2.) 2.) (float_range (-2.) 2.) (float_range (-2.) 2.)
        (float_range (-2.) 2.))
    (fun (a, b, c, d) ->
      let x = Cx.make a b and y = Cx.make c d in
      Float.abs (Cx.abs (Cx.mul x y) -. (Cx.abs x *. Cx.abs y)) < 1e-9)

let suite =
  [ Alcotest.test_case "constants" `Quick test_constants
  ; Alcotest.test_case "arithmetic" `Quick test_arithmetic
  ; Alcotest.test_case "e_i_pi exactness" `Quick test_e_i_pi_exact
  ; Alcotest.test_case "polar form" `Quick test_polar
  ; Alcotest.test_case "table identifies close values" `Quick
      test_table_identifies_close_values
  ; Alcotest.test_case "table works at tiny scales" `Quick test_table_relative_scale
  ; Alcotest.test_case "table zero/one handling" `Quick test_table_zero_one
  ; Util.qtest prop_interning_idempotent
  ; Alcotest.test_case "table exponent skip keeps matches" `Quick test_exponent_skip_bound
  ; Util.qtest prop_matches_reference
  ; Util.qtest prop_mul_commutes
  ; Util.qtest prop_abs_multiplicative
  ]

(* Shared plumbing: clock, order statistics, process facts, the operation
   log every workload fills, and the result line the benchmark prints. *)

module Json = Qcec_json

let now = Obs.Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)

let sorted xs = List.sort Float.compare xs

(* linear interpolation between closest ranks, as numpy's default *)
let quantile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let median xs = quantile 0.5 xs

(* Relative distance between the quartiles, the spread every repeated
   timing in this benchmark reports next to its median. *)
let iqr_rel xs =
  let m = median xs in
  if m = 0.0 then 0.0 else (quantile 0.75 xs -. quantile 0.25 xs) /. m

type tail =
  { pct : float  (** percentile, in percent *)
  ; value : float
  ; samples : int
  }

(* The highest percentile that still has at least ten samples above it:
   with n samples that is rank n - 11 (0-based) of the sorted list.  With
   fewer than eleven samples no percentile qualifies and the maximum is
   reported, flagged by [pct = 100]. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then { pct = 100.0; value = nan; samples = 0 }
  else if n < 11 then { pct = 100.0; value = a.(n - 1); samples = n }
  else
    let rank = n - 11 in
    { pct = 100.0 *. float_of_int (rank + 1) /. float_of_int n; value = a.(rank); samples = n }

(* ------------------------------------------------------------------ *)
(* Process facts                                                       *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* VmHWM: the resident-set high-water mark of this process, in MiB *)
let peak_rss_mb () =
  match
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (read_lines "/proc/self/status")
  with
  | Some l ->
    Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
      float_of_int kb /. 1024.0)
  | None -> nan

let nproc () = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Operation log                                                       *)

(* One verdict-producing operation.  [expected] is the generator-known
   answer; [got = None] is an operation that failed before producing a
   verdict (a refused submission, a service stream that never delivered
   its [done] frame). *)
type op =
  { label : string
  ; expected : bool
  ; got : bool option
  ; latency : float  (** seconds, caller-observed, times [factor] *)
  ; check_s : float  (** seconds the checker itself reports, times [factor] *)
  ; factor : float  (** host-speed scaling applied to the timings (see {!Calib}) *)
  ; warm : bool  (** answered from a stored verdict *)
  }

type log =
  { mutable ops : op list
  ; mutable wrong : string list  (** labels whose verdict was wrong *)
  ; mutable passes : float list  (** wall seconds of each completed pass *)
  ; lock : Mutex.t
  }

let new_log () = { ops = []; wrong = []; passes = []; lock = Mutex.create () }

let record log op =
  Mutex.protect log.lock (fun () ->
    log.ops <- op :: log.ops;
    match op.got with
    | Some v when v <> op.expected -> log.wrong <- op.label :: log.wrong
    | _ -> ())

let record_pass log ~wall = Mutex.protect log.lock (fun () -> log.passes <- wall :: log.passes)

let attempted log = List.length log.ops
let failed log = List.length (List.filter (fun o -> o.got <> Some o.expected) log.ops)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type metric =
  { name : string
  ; value : float
  ; unit_ : string
  }

let m name unit_ value = { name; value; unit_ }

let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [ ("correct", Json.Bool correct)
    ; ("attempted", Json.Int attempted)
    ; ("failed", Json.Int failed)
    ; ( "metrics"
      , Json.Obj
          (List.map
             (fun x -> (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ]))
             metrics) )
  ]

(* The median over each operation label's repetitions of [f]. *)
let median_by_label log f =
  let labels = List.sort_uniq compare (List.map (fun o -> o.label) log.ops) in
  List.map (fun l -> median (List.filter_map (fun o -> if o.label = l then Some (f o) else None) log.ops)) labels

(* The end-to-end metrics every workload reports (tracing off); [lat] are
   the latencies in ms the percentiles are taken over, [tail_ms] their tail. *)
let end_to_end ~setup ~wall ~verdicts_per_s ~t_ver ~lat ~tail_ms =
  [ m "setup_s" "s" (median setup)
  ; m "wall_s" "s" wall
  ; m "verdicts_per_s" "1/s" verdicts_per_s
  ; m "t_ver_s" "s" t_ver
  ; m "p50_ms" "ms" (median lat)
  ; m "tail_ms" "ms" tail_ms
  ; m "peak_rss_mb" "MB" (peak_rss_mb ())
  ]

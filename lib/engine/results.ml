module Json = Qcec_json

let schema = "qcec-batch/v1"

let write_jsonl oc r =
  output_string oc (Json.to_string (Job.to_json r));
  output_char oc '\n';
  flush oc

let read_jsonl path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error msg -> Error msg
  | lines ->
    let rec go acc lineno = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
        if String.trim line = "" then go acc (lineno + 1) rest
        else
          (match Job.of_string line with
           | Ok r -> go (r :: acc) (lineno + 1) rest
           | Error e -> Error (Fmt.str "%s:%d: %s" path lineno e))
    in
    go [] 1 lines

(* Percentile by nearest-rank on the sorted sample; the convention every
   latency dashboard expects (p100 = max, p0 = min). *)
let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let exit_counts results =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (r : Job.result) ->
      let k = Job.exit_class r.Job.outcome in
      Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0))
    results;
  Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let aggregate (b : Pool.batch) =
  let durations =
    List.map (fun (r : Job.result) -> r.Job.duration) b.Pool.results
    |> Array.of_list
  in
  Array.sort compare durations;
  let cpu_seconds = Array.fold_left ( +. ) 0.0 durations in
  (* cpu/wall: how much sequential work the batch packed into each wall
     second.  With one worker this sits near 1.0 (scheduling overhead pulls
     it just below); the bench's sequential-vs-parallel comparison is the
     ground-truth speedup. *)
  let speedup =
    if b.Pool.wall_seconds > 0.0 then cpu_seconds /. b.Pool.wall_seconds else 1.0
  in
  Json.Obj
    [ ("schema", Json.String schema)
    ; ("jobs", Json.Int (List.length b.Pool.results))
    ; ("workers", Json.Int b.Pool.workers)
    ; ("wall_seconds", Json.Float b.Pool.wall_seconds)
    ; ("cpu_seconds", Json.Float cpu_seconds)
    ; ("speedup_vs_sequential", Json.Float speedup)
    ; ( "latency_seconds"
      , Json.Obj
          [ ("p50", Json.Float (percentile durations 50.0))
          ; ("p95", Json.Float (percentile durations 95.0))
          ; ("p99", Json.Float (percentile durations 99.0))
          ; ("max", Json.Float (percentile durations 100.0))
          ] )
    ; ("exit_classes", Json.Obj (exit_counts b.Pool.results))
    ; ("metrics", Obs.Metrics.to_json b.Pool.metrics)
    ; ("spans", Obs.Span.entries_to_json b.Pool.spans)
    ]

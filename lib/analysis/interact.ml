module Op = Circuit.Op

(* The qubit-interaction graph: one vertex per qubit, one (multi-)edge per
   pair of qubits coupled by an entangling op.  Connected components bound
   how far entanglement can spread; the greedy cut-width of the graph is a
   static proxy for the width a decision diagram can reach — every edge
   crossing a cut in the variable order is a channel along which the DD
   below the cut can depend on the wires above it. *)

type t =
  { num_qubits : int
  ; edges : ((int * int) * int) list
  ; entangling_ops : int
  ; components : int array
  ; num_components : int
  ; cutwidth : int
  ; order : int array
  }

(* union-find on qubit indices *)
let find parent q =
  let rec go q = if parent.(q) = q then q else go parent.(q) in
  let root = go q in
  let rec compress q =
    if parent.(q) <> root then begin
      let next = parent.(q) in
      parent.(q) <- root;
      compress next
    end
  in
  compress q;
  root

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra <> rb then parent.(max ra rb) <- min ra rb

(* Pairwise couplings of one op: controls and targets form a clique (for
   the 2-qubit ops the front end emits this is a single edge). *)
let couplings op =
  let qs = List.sort_uniq compare (Op.qubits (Op.base op)) in
  let rec pairs = function
    | [] | [ _ ] -> []
    | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest
  in
  match (Op.base op : Op.t) with
  | Op.Apply _ | Op.Swap _ -> pairs qs
  | Op.Measure _ | Op.Reset _ | Op.Barrier _ | Op.Cond _ -> []

(* Greedy linear arrangement: repeatedly place the qubit that minimizes
   the number of distinct edges crossing the cut between the placed and
   the unplaced set; the maximum over all prefixes is the cut-width
   estimate.  Ties break toward the lowest qubit index, which makes the
   order deterministic. *)
let greedy_cutwidth ~num_qubits edges =
  let adj = Array.make num_qubits [] in
  List.iter
    (fun ((a, b), _) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    edges;
  let placed = Array.make num_qubits false in
  let order = Array.make num_qubits 0 in
  let cut_after q =
    (* edges crossing the cut once [q] joins the placed set *)
    let crossing = ref 0 in
    placed.(q) <- true;
    List.iter
      (fun ((a, b), _) ->
        if placed.(a) <> placed.(b) then incr crossing)
      edges;
    placed.(q) <- false;
    !crossing
  in
  let cutwidth = ref 0 in
  for slot = 0 to num_qubits - 1 do
    let best = ref (-1) and best_cut = ref max_int in
    for q = num_qubits - 1 downto 0 do
      if not placed.(q) then begin
        let c = cut_after q in
        if c <= !best_cut then begin
          best := q;
          best_cut := c
        end
      end
    done;
    order.(slot) <- !best;
    placed.(!best) <- true;
    cutwidth := max !cutwidth !best_cut
  done;
  (!cutwidth, order)

let of_circ (c : Circuit.Circ.t) =
  let num_qubits = c.Circuit.Circ.num_qubits in
  let parent = Array.init num_qubits Fun.id in
  let tbl = Hashtbl.create 64 in
  let entangling = ref 0 in
  List.iter
    (fun op ->
      match couplings op with
      | [] -> ()
      | pairs ->
        incr entangling;
        List.iter
          (fun (a, b) ->
            union parent a b;
            let key = (min a b, max a b) in
            Hashtbl.replace tbl key
              (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
          pairs)
    c.Circuit.Circ.ops;
  let edges =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort compare
  in
  (* canonical component ids: dense, in order of first qubit *)
  let components = Array.make num_qubits 0 in
  let ids = Hashtbl.create 16 in
  for q = 0 to num_qubits - 1 do
    let root = find parent q in
    let id =
      match Hashtbl.find_opt ids root with
      | Some id -> id
      | None ->
        let id = Hashtbl.length ids in
        Hashtbl.add ids root id;
        id
    in
    components.(q) <- id
  done;
  let cutwidth, order = greedy_cutwidth ~num_qubits edges in
  { num_qubits
  ; edges
  ; entangling_ops = !entangling
  ; components
  ; num_components = Hashtbl.length ids
  ; cutwidth
  ; order
  }

let to_json g =
  Qcec_json.Obj
    [ ("entangling_ops", Qcec_json.Int g.entangling_ops)
    ; ( "edges"
      , Qcec_json.List
          (List.map
             (fun ((a, b), m) ->
               Qcec_json.List [ Qcec_json.Int a; Qcec_json.Int b; Qcec_json.Int m ])
             g.edges) )
    ; ("components", Qcec_json.Int g.num_components)
    ; ("cutwidth", Qcec_json.Int g.cutwidth)
    ; ( "order"
      , Qcec_json.List
          (Array.to_list (Array.map (fun q -> Qcec_json.Int q) g.order)) )
    ]

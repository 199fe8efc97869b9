module K = Klut.Network
module T = Tt.Truth_table

type result = {
  network : K.t;
  node_map : int array;
  roots : int list;
}

(* Grow the cone of [root] downwards: a fanin joins the cone when it is a
   LUT, not itself a requested boundary, feeds only this cone (fanout 1),
   and the leaf budget allows it. Returns the cone's interior nodes
   (including the root) and its leaves, both ascending. *)
let grow_cone net ~limit ~is_target root =
  let interior = Hashtbl.create 8 in
  Hashtbl.replace interior root ();
  let leaves = Hashtbl.create 8 in
  Array.iter (fun f -> Hashtbl.replace leaves f ()) (K.fanins net root);
  let progress = ref true in
  while !progress do
    progress := false;
    let candidates = Hashtbl.fold (fun l () acc -> l :: acc) leaves [] in
    List.iter
      (fun l ->
        if
          K.is_lut net l && (not (is_target l)) && K.fanout_count net l = 1
        then begin
          (* Tentatively expand l: its fanins replace it among leaves. *)
          let added =
            Array.to_list (K.fanins net l)
            |> List.filter (fun f ->
                   (not (Hashtbl.mem leaves f)) && not (Hashtbl.mem interior f))
          in
          let new_count = Hashtbl.length leaves - 1 + List.length added in
          if new_count <= limit && new_count >= 1 then begin
            Hashtbl.remove leaves l;
            List.iter (fun f -> Hashtbl.replace leaves f ()) added;
            Hashtbl.replace interior l ();
            progress := true
          end
        end)
      candidates
  done;
  let sorted tbl =
    List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])
  in
  (sorted interior, sorted leaves)

(* Function of the cone root over the cone leaves, by STP composition of
   the member logic matrices in topological order. *)
let cone_function net interior leaves root =
  let k = List.length leaves in
  if k > 20 then invalid_arg "Circuit_cut: cone with more than 20 leaves";
  let tts = Hashtbl.create 8 in
  List.iteri (fun i l -> Hashtbl.replace tts l (T.nth_var k i)) leaves;
  List.iter
    (fun nd ->
      let fanins = K.fanins net nd in
      let args = Array.map (fun f ->
          match Hashtbl.find_opt tts f with
          | Some t -> t
          | None ->
            (* Fanin outside leaves: only the constant node can occur. *)
            assert (f = 0);
            T.const0 k)
          fanins
      in
      Hashtbl.replace tts nd (T.compose (K.func net nd) args))
    interior;
  Hashtbl.find tts root

let cut net ~limit ~targets =
  if limit < 1 then invalid_arg "Circuit_cut.cut: limit must be positive";
  let n = K.num_nodes net in
  let is_target =
    let mark = Array.make n false in
    List.iter
      (fun t ->
        if t < 0 || t >= n then invalid_arg "Circuit_cut.cut: bad target";
        mark.(t) <- true)
      targets;
    fun nd -> mark.(nd)
  in
  (* Collect roots: targets plus every LUT leaf of a grown cone,
     recursively. Worklist over original ids; record cones. *)
  let cones = Hashtbl.create 64 in (* root -> interior, leaves *)
  let pending = Queue.create () in
  let queued = Array.make n false in
  let enqueue nd =
    if K.is_lut net nd && not queued.(nd) then begin
      queued.(nd) <- true;
      Queue.add nd pending
    end
  in
  List.iter (fun t -> enqueue t) targets;
  while not (Queue.is_empty pending) do
    let root = Queue.pop pending in
    let interior, leaves = grow_cone net ~limit ~is_target root in
    Hashtbl.replace cones root (interior, leaves);
    List.iter enqueue leaves
  done;
  (* Build the cut network in topological order of the original ids. *)
  let out = K.create ~capacity:n () in
  let node_map = Array.make n (-1) in
  node_map.(0) <- 0;
  for i = 0 to K.num_pis net - 1 do
    node_map.(K.pi_node net i) <- K.add_pi out
  done;
  let roots =
    Hashtbl.fold (fun r _ acc -> r :: acc) cones [] |> List.sort Int.compare
  in
  List.iter
    (fun root ->
      let interior, leaves = Hashtbl.find cones root in
      let f = cone_function net interior leaves root in
      let fanins =
        Array.of_list
          (List.map
             (fun l ->
               assert (node_map.(l) >= 0);
               node_map.(l))
             leaves)
      in
      node_map.(root) <- K.add_lut out fanins f)
    roots;
  { network = out; node_map; roots }

let floor_log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let limit ~num_patterns =
  min Kernel.cascade_max_fanins (max 2 (floor_log2 (max 2 num_patterns)))

let simulate net pats ~targets =
  let limit = limit ~num_patterns:(Patterns.num_patterns pats) in
  let { network; node_map; roots = _ } = cut net ~limit ~targets in
  let tbl = Kernel.execute (Kernel.compile_klut ~style:`Stp network) pats in
  List.map (fun t -> (t, tbl.(node_map.(t)))) targets

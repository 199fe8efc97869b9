module Vec = Sutil.Vec

type node_kind = Const | Pi of int | And

type t = {
  fan0 : Vec.t; (* per node: fanin0 literal; -1 for PI, -2 for const *)
  fan1 : Vec.t; (* per node: fanin1 literal; PI index for PIs *)
  lvl : Vec.t;
  fanouts : Vec.t; (* reference counts, updated on add *)
  pis : Vec.t; (* node ids of PIs in creation order *)
  outs : Vec.t; (* PO driver literals *)
  mutable strash : int array; (* structural hash of the ANDs, see [probe] *)
}

let pi_tag = -1
let const_tag = -2

(* The structural-hash table is open addressing with linear probing over
   ints: a slot holds an AND's node id, or 0 when free (node 0 is the
   constant, never an AND), and the node's own fanins are its key. The
   load stays at most one half, so a network that stays within
   [capacity] nodes never rehashes. *)
let strash_table ~capacity =
  let slots = ref 16 in
  while !slots < 2 * capacity do
    slots := 2 * !slots
  done;
  Array.make !slots 0

(* The slot holding the AND of [f0] and [f1], or the free slot where it
   would go. The hash mixes the packed fanin pair. *)
let probe t f0 f1 =
  let mask = Array.length t.strash - 1 in
  let rec go s =
    let nd = t.strash.(s) in
    if nd = 0 || (Vec.get t.fan0 nd = f0 && Vec.get t.fan1 nd = f1) then s
    else go ((s + 1) land mask)
  in
  let h = ((f0 lsl 30) lor f1) * 0x2545F4914F6CDD1D in
  go ((h lxor (h lsr 29)) land mask)

let create ?(capacity = 1024) () =
  let t =
    {
      fan0 = Vec.create ~capacity ();
      fan1 = Vec.create ~capacity ();
      lvl = Vec.create ~capacity ();
      fanouts = Vec.create ~capacity ();
      pis = Vec.create ();
      outs = Vec.create ();
      strash = strash_table ~capacity;
    }
  in
  (* Node 0: constant false. *)
  Vec.push t.fan0 const_tag;
  Vec.push t.fan1 0;
  Vec.push t.lvl 0;
  Vec.push t.fanouts 0;
  t

let num_nodes t = Vec.length t.fan0
let num_pis t = Vec.length t.pis
let num_pos t = Vec.length t.outs
let num_ands t = num_nodes t - num_pis t - 1

let kind t n =
  match Vec.get t.fan0 n with
  | x when x = const_tag -> Const
  | x when x = pi_tag -> Pi (Vec.get t.fan1 n)
  | _ -> And

let is_and t n = n < num_nodes t && Vec.get t.fan0 n >= 0
let is_pi t n = n < num_nodes t && Vec.get t.fan0 n = pi_tag

let fanin0 t n =
  let f = Vec.get t.fan0 n in
  if f < 0 then invalid_arg "Network.fanin0: not an AND node";
  f

let fanin1 t n =
  if Vec.get t.fan0 n < 0 then invalid_arg "Network.fanin1: not an AND node";
  Vec.get t.fan1 n

let pi_node t i = Vec.get t.pis i
let po t i = Vec.get t.outs i
let pos t = Vec.to_array t.outs
let level t n = Vec.get t.lvl n

let add_pi t =
  let n = num_nodes t in
  Vec.push t.fan0 pi_tag;
  Vec.push t.fan1 (num_pis t);
  Vec.push t.lvl 0;
  Vec.push t.fanouts 0;
  Vec.push t.pis n;
  Lit.of_node n false

let order f0 f1 = if f0 > f1 then (f1, f0) else (f0, f1)

let incr_fanout t n = Vec.set t.fanouts n (Vec.get t.fanouts n + 1)

let find_and t f0 f1 =
  let f0, f1 = order f0 f1 in
  if f0 = Lit.false_ then Some Lit.false_
  else if f0 = Lit.true_ then Some f1
  else if f0 = f1 then Some f0
  else if f0 = Lit.not_ f1 then Some Lit.false_
  else
    match t.strash.(probe t f0 f1) with 0 -> None | nd -> Some (Lit.of_node nd false)

(* Files the new AND [n], doubling the table first if it is half full. *)
let strash_add t n =
  if 2 * num_ands t > Array.length t.strash then begin
    let old = t.strash in
    t.strash <- Array.make (2 * Array.length old) 0;
    Array.iter
      (fun nd ->
        if nd <> 0 then
          t.strash.(probe t (Vec.get t.fan0 nd) (Vec.get t.fan1 nd)) <- nd)
      old
  end;
  t.strash.(probe t (Vec.get t.fan0 n) (Vec.get t.fan1 n)) <- n

let add_and t f0 f1 =
  let f0, f1 = order f0 f1 in
  match find_and t f0 f1 with
  | Some l -> l
  | None ->
    let n = num_nodes t in
    Vec.push t.fan0 f0;
    Vec.push t.fan1 f1;
    Vec.push t.lvl (1 + max (Vec.get t.lvl (Lit.node f0)) (Vec.get t.lvl (Lit.node f1)));
    Vec.push t.fanouts 0;
    incr_fanout t (Lit.node f0);
    incr_fanout t (Lit.node f1);
    strash_add t n;
    Lit.of_node n false

let add_or t a b = Lit.not_ (add_and t (Lit.not_ a) (Lit.not_ b))

let add_xor t a b =
  (* a xor b = !(a & b) & !(!a & !b) *)
  let both = add_and t a b in
  let neither = add_and t (Lit.not_ a) (Lit.not_ b) in
  add_and t (Lit.not_ both) (Lit.not_ neither)

let add_mux t s a b =
  let sa = add_and t s a in
  let nsb = add_and t (Lit.not_ s) b in
  add_or t sa nsb

let add_maj t a b c =
  let ab = add_and t a b in
  let bc = add_and t b c in
  let ca = add_and t c a in
  add_or t (add_or t ab bc) ca

let add_po t l =
  Vec.push t.outs l;
  incr_fanout t (Lit.node l);
  num_pos t - 1

let fanout_count t n = Vec.get t.fanouts n

let iter_nodes t f =
  for n = 0 to num_nodes t - 1 do
    f n
  done

let iter_ands t f =
  for n = 0 to num_nodes t - 1 do
    if Vec.get t.fan0 n >= 0 then f n
  done

let depth t =
  let d = ref 0 in
  Sutil.Vec.iter (fun l -> d := max !d (level t (Lit.node l))) t.outs;
  !d

let rebuild ?map t =
  let n = num_nodes t in
  let map = match map with Some m -> m | None -> Array.make n (-1) in
  if Array.length map <> n then invalid_arg "Network.rebuild: map length";
  (* Resolve replacement chains. Replacements must point strictly
     backwards in topological order, which every sweeper here guarantees
     (a node merges onto an earlier representative). *)
  let rec resolve l =
    let nd = Lit.node l in
    let r = map.(nd) in
    if r < 0 then l
    else begin
      if Lit.node r >= nd then
        invalid_arg "Network.rebuild: replacement does not point backwards";
      resolve (Lit.xor_compl r (Lit.is_compl l))
    end
  in
  let fresh = create ~capacity:n () in
  (* Mark reachable old nodes from POs through resolved literals. *)
  let reach = Array.make n false in
  let stack = Vec.create () in
  let push_lit l =
    let nd = Lit.node (resolve l) in
    if not reach.(nd) then begin
      reach.(nd) <- true;
      Vec.push stack nd
    end
  in
  Sutil.Vec.iter push_lit t.outs;
  while Vec.length stack > 0 do
    let nd = Vec.pop stack in
    if Vec.get t.fan0 nd >= 0 then begin
      push_lit (Vec.get t.fan0 nd);
      push_lit (Vec.get t.fan1 nd)
    end
  done;
  (* Translate in topological (id) order. PIs are always kept so that PI
     indices line up between old and new networks. *)
  let out = Array.make n (-1) in
  out.(0) <- Lit.false_;
  let tr l =
    let r = resolve l in
    let m = out.(Lit.node r) in
    assert (m >= 0);
    Lit.xor_compl m (Lit.is_compl r)
  in
  for nd = 0 to n - 1 do
    match kind t nd with
    | Const -> ()
    | Pi _ -> out.(nd) <- add_pi fresh
    | And ->
      if reach.(nd) && map.(nd) < 0 then
        out.(nd) <- add_and fresh (tr (Vec.get t.fan0 nd)) (tr (Vec.get t.fan1 nd))
  done;
  Sutil.Vec.iter (fun l -> ignore (add_po fresh (tr l))) t.outs;
  (* Final translation including replaced nodes, for callers that track
     old literals. *)
  let final = Array.init n (fun nd ->
      let r = resolve (Lit.of_node nd false) in
      let m = out.(Lit.node r) in
      if m < 0 then -1 else Lit.xor_compl m (Lit.is_compl r))
  in
  (fresh, final)

let cleanup t = rebuild t

let pp_stats ppf t =
  Format.fprintf ppf "pi=%d po=%d and=%d lev=%d" (num_pis t) (num_pos t)
    (num_ands t) (depth t)

let stats_json t =
  Obs.Json.Obj
    [
      ("pis", Obs.Json.Int (num_pis t));
      ("pos", Obs.Json.Int (num_pos t));
      ("ands", Obs.Json.Int (num_ands t));
      ("depth", Obs.Json.Int (depth t));
    ]

module A = Aig.Network
module L = Aig.Lit
module Solver = Sat.Solver
module Drup = Sat.Drup

let max_leaves = 5
let max_expansions = 64
let max_frontier = 24

(* The two roots plus two fanins per expansion. *)
let max_slots = 2 + (2 * max_expansions)
let mask = 0xFFFFFFFF

let projection =
  [| 0xAAAAAAAA; 0xCCCCCCCC; 0xF0F0F0F0; 0xFF00FF00; 0xFFFF0000 |]

type t = {
  mutable stamp : int array; (* node -> epoch of the last cut that saw it *)
  mutable slot : int array; (* node -> its slot in that cut *)
  mutable epoch : int;
  mutable nslots : int;
  node : int array; (* slot -> node id *)
  tt : int array; (* slot -> truth table over the cut leaves *)
  fan : int array;
  (* 2*slot, 2*slot+1 -> fanin slot lsl 1 lor complement, for expanded
     slots *)
  ands : int array; (* frontier ANDs (node ids), ascending *)
  mutable nands : int;
  others : int array; (* frontier PIs and the constant (node ids) *)
  mutable nothers : int;
  inner : int array; (* expanded slots, in (descending) expansion order *)
  mutable ninner : int;
  leaves : int array; (* slots of the tested cut's leaves, projection order *)
  mutable nleaves : int;
  mutable const_slot : int; (* slot of node 0 in the cut, or -1 *)
  mutable root_a : int; (* slot of the higher root *)
  mutable root_b : int;
}

let create () =
  {
    stamp = [||];
    slot = [||];
    epoch = 0;
    nslots = 0;
    node = Array.make max_slots 0;
    tt = Array.make max_slots 0;
    fan = Array.make (2 * max_slots) 0;
    ands = Array.make max_slots 0;
    nands = 0;
    others = Array.make max_slots 0;
    nothers = 0;
    inner = Array.make max_expansions 0;
    ninner = 0;
    leaves = Array.make max_slots 0;
    nleaves = 0;
    const_slot = -1;
    root_a = 0;
    root_b = 0;
  }

(* Node-indexed arrays, grown by doubling to cover node ids
   [0 .. n-1]. *)
let reserve t n =
  let have = Array.length t.stamp in
  if n > have then begin
    let cap = max n (2 * have) in
    let grow a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 have;
      b
    in
    (* Epochs start at 1, so a zeroed stamp is never current. *)
    t.stamp <- grow t.stamp;
    t.slot <- grow t.slot
  end

(* Add a node to the frontier unless the cut already holds it. A fanin
   is never an expanded node (expansions descend), so "seen" means "on
   the frontier". *)
let see t net n =
  if t.stamp.(n) <> t.epoch then begin
    t.stamp.(n) <- t.epoch;
    t.slot.(n) <- t.nslots;
    t.node.(t.nslots) <- n;
    if n = 0 then t.const_slot <- t.nslots;
    t.nslots <- t.nslots + 1;
    if A.is_and net n then begin
      let i = ref t.nands in
      while !i > 0 && t.ands.(!i - 1) > n do
        t.ands.(!i) <- t.ands.(!i - 1);
        decr i
      done;
      t.ands.(!i) <- n;
      t.nands <- t.nands + 1
    end
    else begin
      t.others.(t.nothers) <- n;
      t.nothers <- t.nothers + 1
    end
  end

(* Replace the highest-numbered frontier AND by its fanins. *)
let expand t net =
  t.nands <- t.nands - 1;
  let n = t.ands.(t.nands) in
  let f0 = A.fanin0 net n and f1 = A.fanin1 net n in
  see t net (L.node f0);
  see t net (L.node f1);
  let s = t.slot.(n) in
  t.fan.(2 * s) <- (t.slot.(L.node f0) lsl 1) lor (f0 land 1);
  t.fan.((2 * s) + 1) <- (t.slot.(L.node f1) lsl 1) lor (f1 land 1);
  t.inner.(t.ninner) <- s;
  t.ninner <- t.ninner + 1

let frontier_size t = t.nands + t.nothers
let num_leaves t = frontier_size t - if t.const_slot >= 0 then 1 else 0

let add_leaf t s =
  t.tt.(s) <- projection.(t.nleaves);
  t.leaves.(t.nleaves) <- s;
  t.nleaves <- t.nleaves + 1

let word t f = t.tt.(f lsr 1) lxor (mask * (f land 1))

(* Leaf words first, then the expanded ANDs bottom-up (ascending id is
   the reverse of expansion order). *)
let evaluate t =
  t.nleaves <- 0;
  for i = 0 to t.nands - 1 do
    add_leaf t t.slot.(t.ands.(i))
  done;
  for i = 0 to t.nothers - 1 do
    let n = t.others.(i) in
    if n = 0 then t.tt.(t.slot.(n)) <- 0 else add_leaf t t.slot.(n)
  done;
  for j = t.ninner - 1 downto 0 do
    let s = t.inner.(j) in
    t.tt.(s) <- word t t.fan.(2 * s) land word t t.fan.((2 * s) + 1)
  done

let rec grow t net =
  if t.nands = 0 || t.ninner >= max_expansions then `Unknown
  else begin
    expand t net;
    if frontier_size t > max_frontier then `Unknown
    else if num_leaves t > max_leaves then grow t net
    else begin
      evaluate t;
      let ta = t.tt.(t.root_a) and tb = t.tt.(t.root_b) in
      if ta = tb then `Equal
      else if ta = tb lxor mask then `Compl
      else grow t net
    end
  end

let verdict t net a b =
  reserve t (A.num_nodes net);
  t.epoch <- t.epoch + 1;
  t.nslots <- 0;
  t.nands <- 0;
  t.nothers <- 0;
  t.ninner <- 0;
  t.const_slot <- -1;
  let hi = Int.max a b and lo = Int.min a b in
  see t net hi;
  see t net lo;
  t.root_a <- t.slot.(hi);
  t.root_b <- t.slot.(lo);
  (* [hi] is the highest frontier node, so when it is an AND the first
     expansion is its own; a non-AND [hi] is never expanded and its
     pair stays open. *)
  if A.is_and net hi then grow t net else `Unknown

(* Variables are handed out per node id here, apart from the cut's
   slots, and every Tseitin clause is read off [net]: a slip in the slot
   bookkeeping of [see]/[expand] makes a lemma fail its RUP check
   instead of certifying a wrong merge. The cut only says which nodes
   to encode and which to case-split on. *)
let prove t net a b ~compl =
  let ck = Drup.create () in
  let vars = Hashtbl.create 64 in
  let var n =
    match Hashtbl.find_opt vars n with
    | Some v -> v
    | None ->
      let v = Hashtbl.length vars in
      Hashtbl.add vars n v;
      (* Node 0 is the constant false. *)
      if n = 0 then Drup.add_input ck [ Solver.lit_of v true ];
      v
  in
  let lit n neg = Solver.lit_of (var n) neg in
  let fanin f = lit (L.node f) (L.is_compl f) in
  for j = 0 to t.ninner - 1 do
    let n = t.node.(t.inner.(j)) in
    if A.is_and net n then begin
      let v = lit n false in
      let f0 = fanin (A.fanin0 net n) and f1 = fanin (A.fanin1 net n) in
      Drup.add_input ck [ Solver.neg v; f0 ];
      Drup.add_input ck [ Solver.neg v; f1 ];
      Drup.add_input ck [ v; Solver.neg f0; Solver.neg f1 ]
    end
  done;
  let ra = lit a false and rb = lit b compl in
  Drup.add_input ck [ ra; rb ];
  Drup.add_input ck [ Solver.neg ra; Solver.neg rb ];
  (* The clause ruling out assignment [m] of leaves [0 .. w-1]. At full
     width it is RUP because propagation evaluates the cut and the miter
     clauses then clash; below, because the two clauses of width [w+1]
     that extend it resolve to it. *)
  let block w m =
    List.init w (fun i -> lit t.node.(t.leaves.(i)) ((m lsr i) land 1 = 1))
  in
  let rec width w m =
    if w < 0 then Drup.certify_unsat ck ~assumptions:[]
    else if m >= 1 lsl w then width (w - 1) 0
    else
      match Drup.add_derived ck (block w m) with
      | Ok () -> width w (m + 1)
      | Error _ as e -> e
  in
  width t.nleaves 0

module A = Aig.Network
module L = Aig.Lit
module K = Klut.Network
module T = Tt.Truth_table
module C = Stp.Cascade

let word_mask = 0xFFFFFFFF

(* Widest executor block: 512 words = 16,384 patterns; a shorter word
   range is one block. Each instruction streams a whole block of its
   rows, so it is dispatched once per block. A cascade keeps one
   block-wide scratch row per slot, which is what bounds the block. *)
let block_words = 512

(* Word ranges no wider than this run on the calling domain. *)
let shard_min_words = 16

(* Opcodes. One instruction per node, instruction index = node id. *)
let op_const = 0
let op_pi = 1
let op_and = 2
let op_matrix = 3
let op_cascade = 4

(* The widest LUT [`Stp] compiles into a selection cascade; wider ones
   take the matrix pass. *)
let cascade_max_fanins = 8

(* k-LUT networks reuse a small set of functions (a 6-LUT mapping of a
   big adder is mostly a handful of carry/sum shapes), so a cascade is
   compiled once per distinct truth table and shared across nodes, plan
   compilations, and — through {!Cache.shared} — across passes and
   daemon requests in the same process. Bounded FIFO: the oldest entry
   is dropped once [max_entries] distinct tables are resident, so a
   long-lived daemon cannot grow it without limit. *)
module Cache = struct
  type t = {
    tbl : (T.t, C.t) Hashtbl.t;
    order : T.t Queue.t;
    max_entries : int;
    lock : Mutex.t;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ?(max_entries = 4096) () =
    {
      tbl = Hashtbl.create 64;
      order = Queue.create ();
      max_entries = max 1 max_entries;
      lock = Mutex.create ();
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let hits c = c.hits
  let misses c = c.misses
  let evictions c = c.evictions
  let length c = Hashtbl.length c.tbl

  (* Plan compilation is sequential, but two daemon workers may compile
     plans concurrently against the shared cache; the mutex covers the
     whole lookup-or-compile so an entry is compiled at most once per
     residency. *)
  let get c tt =
    Mutex.lock c.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) @@ fun () ->
    match Hashtbl.find_opt c.tbl tt with
    | Some comp ->
      c.hits <- c.hits + 1;
      comp
    | None ->
      let comp = C.compile tt in
      c.misses <- c.misses + 1;
      if Hashtbl.length c.tbl >= c.max_entries then begin
        let oldest = Queue.pop c.order in
        Hashtbl.remove c.tbl oldest;
        c.evictions <- c.evictions + 1
      end;
      Hashtbl.replace c.tbl tt comp;
      Queue.push tt c.order;
      comp

  let shared_instance = lazy (create ())
  let shared () = Lazy.force shared_instance
end

(* The plan: one instruction per node in a flat arena of int arrays —
   no per-node OCaml blocks, so executing it touches only the code
   arrays, the shared pools and the signature rows. Growable in place:
   [extend_*] appends instructions for nodes created since the last
   compilation, which is how the sweep engine patches its plan as the
   fresh network grows. *)
type t = {
  mutable n : int; (* instructions = nodes compiled so far *)
  mutable op : int array;
  mutable x0 : int array; (* operands, meaning per opcode below *)
  mutable x1 : int array;
  mutable x2 : int array;
  mutable x3 : int array;
  mutable x4 : int array;
  (* pools *)
  mutable fanin_pool : int array; (* concatenated fanin node ids *)
  mutable fanin_len : int;
  mutable tt_pool : int array; (* concatenated packed truth tables *)
  mutable tt_len : int;
  mutable casc_pool : int array; (* (var, hi, lo) triples, flattened *)
  mutable casc_len : int;
  mutable max_slots : int; (* scratch slots of the longest cascade *)
  mutable max_k : int; (* widest fanin list *)
}
(* Operands:
   - op_const:   none (row is all zeros)
   - op_pi:      x0 = PI index
   - op_and:     x0/x1 = fanin nodes, x2/x3 = complement masks
   - op_matrix:  x0 = fanin_pool offset, x1 = k, x2 = tt_pool offset
   - op_cascade: x0 = fanin_pool offset, x1 = casc_pool triple base,
                 x2 = instruction count, x3 = root slot, x4 = k *)

let num_instructions t = t.n

let create_empty ?(hint = 64) () =
  let hint = max 16 hint in
  {
    n = 0;
    op = Array.make hint 0;
    x0 = Array.make hint 0;
    x1 = Array.make hint 0;
    x2 = Array.make hint 0;
    x3 = Array.make hint 0;
    x4 = Array.make hint 0;
    fanin_pool = Array.make 64 0;
    fanin_len = 0;
    tt_pool = Array.make 64 0;
    tt_len = 0;
    casc_pool = Array.make 64 0;
    casc_len = 0;
    max_slots = 2;
    max_k = 1;
  }

let grow_to arr len =
  if Array.length arr >= len then arr
  else begin
    let bigger = Array.make (max len (2 * Array.length arr)) 0 in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

let ensure_code t n =
  if n > Array.length t.op then begin
    t.op <- grow_to t.op n;
    t.x0 <- grow_to t.x0 n;
    t.x1 <- grow_to t.x1 n;
    t.x2 <- grow_to t.x2 n;
    t.x3 <- grow_to t.x3 n;
    t.x4 <- grow_to t.x4 n
  end

let pool_add_fanins t fanins =
  let off = t.fanin_len in
  t.fanin_pool <- grow_to t.fanin_pool (off + Array.length fanins);
  Array.blit fanins 0 t.fanin_pool off (Array.length fanins);
  t.fanin_len <- off + Array.length fanins;
  off

let pool_add_tt t words =
  let off = t.tt_len in
  t.tt_pool <- grow_to t.tt_pool (off + Array.length words);
  Array.blit words 0 t.tt_pool off (Array.length words);
  t.tt_len <- off + Array.length words;
  off

let pool_add_cascade t (c : C.t) =
  let ni = C.length c in
  let base = t.casc_len in
  t.casc_pool <- grow_to t.casc_pool (3 * (base + ni));
  for i = 0 to ni - 1 do
    let at = 3 * (base + i) in
    t.casc_pool.(at) <- c.C.sel_var.(i);
    t.casc_pool.(at + 1) <- c.C.sel_hi.(i);
    t.casc_pool.(at + 2) <- c.C.sel_lo.(i)
  done;
  t.casc_len <- base + ni;
  if ni + 2 > t.max_slots then t.max_slots <- ni + 2;
  base

(* ---- plan compilers ---- *)

(* Instruction order is node creation order, which both network types
   guarantee is topological — a levelization by topological index. The
   executor only needs fanin instructions to precede their readers
   within each word, so no separate level schedule is kept. *)

let extend_aig t net =
  let n = A.num_nodes net in
  ensure_code t n;
  for nd = t.n to n - 1 do
    (match A.kind net nd with
    | A.Const -> t.op.(nd) <- op_const
    | A.Pi i ->
      t.op.(nd) <- op_pi;
      t.x0.(nd) <- i
    | A.And ->
      let f0 = A.fanin0 net nd and f1 = A.fanin1 net nd in
      t.op.(nd) <- op_and;
      t.x0.(nd) <- L.node f0;
      t.x1.(nd) <- L.node f1;
      t.x2.(nd) <- (if L.is_compl f0 then word_mask else 0);
      t.x3.(nd) <- (if L.is_compl f1 then word_mask else 0));
    t.n <- nd + 1
  done

let compile_aig ?hint net =
  let t = create_empty ?hint () in
  extend_aig t net;
  t

(* KLUT instruction selection: [`Stp] compiles each narrow LUT
   (k <= cascade_max_fanins) into its selection cascade — the paper's
   engine — and falls back to a matrix pass for wide LUTs (cut-composed
   cones). [`Bitblast] is the
   baseline off-the-shelf treatment: every LUT is a matrix pass, i.e.
   per-bit fanin gather + table lookup, which is exactly what extracting
   individual bits of the LUT costs. *)
let extend_klut t ?cache ~style net =
  let cache = match cache with Some c -> c | None -> Cache.shared () in
  let n = K.num_nodes net in
  ensure_code t n;
  for nd = t.n to n - 1 do
    (if K.is_pi net nd then begin
       t.op.(nd) <- op_pi;
       t.x0.(nd) <- K.pi_index net nd
     end
     else if K.is_lut net nd then begin
       let fanins = K.fanins net nd in
       let k = Array.length fanins in
       if k > t.max_k then t.max_k <- k;
       let fo = pool_add_fanins t fanins in
       let narrow =
         match style with
         | `Stp -> k <= cascade_max_fanins
         | `Bitblast -> false
       in
       if narrow then begin
         let c = Cache.get cache (K.func net nd) in
         (* The executor writes the last selection to the node's row. *)
         assert (c.C.root < 2 || c.C.root = C.length c + 1);
         t.op.(nd) <- op_cascade;
         t.x0.(nd) <- fo;
         t.x1.(nd) <- pool_add_cascade t c;
         t.x2.(nd) <- C.length c;
         t.x3.(nd) <- c.C.root;
         t.x4.(nd) <- k
       end
       else begin
         t.op.(nd) <- op_matrix;
         t.x0.(nd) <- fo;
         t.x1.(nd) <- k;
         t.x2.(nd) <- pool_add_tt t (T.to_words (K.func net nd))
       end
     end
     else t.op.(nd) <- op_const);
    t.n <- nd + 1
  done

let compile_klut ?hint ?cache ~style net =
  let t = create_empty ?hint () in
  extend_klut t ?cache ~style net;
  t

(* ---- block executor ---- *)

(* Run instructions [inst_lo, inst_hi) over pattern words [lo, hi),
   block-tiled: the outer loop takes word blocks of [bw] words
   ([block_words], or the whole range if that is shorter), the inner
   loop streams the instruction arena over each block. Rows are
   caller-allocated ([tbl], indexed by node id) and only words in
   [lo, hi) of rows [inst_lo, inst_hi) are written, so disjoint word
   ranges can run in separate domains and instruction suffixes can be
   patched in isolation. No tail masking here — callers mask once per
   execution. *)
let run t pats (tbl : int array array) ~inst_lo ~inst_hi ~lo ~hi =
  let op = t.op
  and x0 = t.x0
  and x1 = t.x1
  and x2 = t.x2
  and x3 = t.x3
  and x4 = t.x4 in
  let fanin_pool = t.fanin_pool
  and tt_pool = t.tt_pool
  and casc_pool = t.casc_pool in
  let bw = max 1 (min block_words (hi - lo)) in
  (* Per-call scratch (per domain when sharded): fanin row bindings, and
     for plans with cascades the slot rows, flat: word [w] of slot [s]
     in the block starting at [blo] is [slots.(s * bw + w - blo)]. Slot
     0 is constant 0, slot 1 constant 1. *)
  let slots =
    if t.casc_len = 0 then [||]
    else begin
      let s = Array.make (t.max_slots * bw) 0 in
      Array.fill s bw bw word_mask;
      s
    end
  in
  let rows = Array.make (max 1 t.max_k) [||] in
  let b_lo = ref lo in
  while !b_lo < hi do
    let blo = !b_lo in
    let bhi = min hi (blo + bw) in
    for i = inst_lo to inst_hi - 1 do
      let o = Array.unsafe_get op i in
      if o = op_and then begin
        let s0 = tbl.(x0.(i)) and s1 = tbl.(x1.(i)) in
        let m0 = x2.(i) and m1 = x3.(i) in
        let out = tbl.(i) in
        for w = blo to bhi - 1 do
          Array.unsafe_set out w
            ((Array.unsafe_get s0 w lxor m0)
            land (Array.unsafe_get s1 w lxor m1))
        done
      end
      else if o = op_pi then begin
        let out = tbl.(i) and pi = x0.(i) in
        for w = blo to bhi - 1 do
          Array.unsafe_set out w (Patterns.word pats ~pi w)
        done
      end
      else if o = op_cascade then begin
        let out = tbl.(i) in
        let root = x3.(i) in
        if root = 0 then Array.fill out blo (bhi - blo) 0
        else if root = 1 then Array.fill out blo (bhi - blo) word_mask
        else begin
          let fo = x0.(i) and base = 3 * x1.(i) and ni = x2.(i) in
          let k = x4.(i) in
          for j = 0 to k - 1 do
            rows.(j) <- tbl.(fanin_pool.(fo + j))
          done;
          (* Selection-major: each selection streams the block's words
             of its selector row through the slot rows. The last one is
             the root, so it writes the node's row instead. *)
          for ic = 0 to ni - 1 do
            let at = base + (3 * ic) in
            let x = Array.unsafe_get rows (Array.unsafe_get casc_pool at) in
            let sh = (Array.unsafe_get casc_pool (at + 1) * bw) - blo
            and sl = (Array.unsafe_get casc_pool (at + 2) * bw) - blo in
            let last = ic = ni - 1 in
            let dst = if last then out else slots
            and d = if last then 0 else ((ic + 2) * bw) - blo in
            for w = blo to bhi - 1 do
              let xw = Array.unsafe_get x w in
              Array.unsafe_set dst (d + w)
                ((xw land Array.unsafe_get slots (sh + w))
                lor (lnot xw land Array.unsafe_get slots (sl + w)))
            done
          done
        end
      end
      else if o = op_matrix then begin
        (* The one fanin-bit gather loop in the library: build the
           column index bit by bit and select the packed-table column.
           Both the baseline bit-blast treatment and the STP wide-LUT
           pass execute through here. *)
        let fo = x0.(i) and k = x1.(i) and tto = x2.(i) in
        for j = 0 to k - 1 do
          rows.(j) <- tbl.(fanin_pool.(fo + j))
        done;
        let out = tbl.(i) in
        for w = blo to bhi - 1 do
          let acc = ref 0 in
          let bit = ref 0 in
          while !bit < 32 do
            let idx = ref 0 in
            for j = k - 1 downto 0 do
              idx :=
                (!idx lsl 1)
                lor ((Array.unsafe_get (Array.unsafe_get rows j) w lsr !bit)
                    land 1)
            done;
            let c = !idx in
            acc :=
              !acc
              lor (((Array.unsafe_get tt_pool (tto + (c lsr 5)) lsr (c land 31))
                   land 1)
                  lsl !bit);
            incr bit
          done;
          Array.unsafe_set out w !acc
        done
      end
      else begin
        (* op_const *)
        let out = tbl.(i) in
        Array.fill out blo (bhi - blo) 0
      end
    done;
    b_lo := bhi
  done

(* Domain sharding at plan granularity: split the word range into
   contiguous per-domain sub-ranges; each domain runs the whole
   instruction stream (block-tiled) over its own slice, writing a
   disjoint word slice of every row — bit-identical to sequential. *)
let run_sharded ?(domains = 1) t pats tbl ~inst_lo ~inst_hi ~lo ~hi =
  if domains <= 1 || hi - lo <= shard_min_words then
    run t pats tbl ~inst_lo ~inst_hi ~lo ~hi
  else
    Sutil.Par.for_ranges ~domains (hi - lo) (fun ~lo:l ~hi:h ->
        run t pats tbl ~inst_lo ~inst_hi ~lo:(lo + l) ~hi:(lo + h))

let alloc_table t nw = Array.init t.n (fun _ -> Array.make nw 0)

let execute ?(domains = 1) t pats =
  let nw = Patterns.num_words pats in
  let tbl = alloc_table t (max 1 nw) in
  run_sharded ~domains t pats tbl ~inst_lo:0 ~inst_hi:t.n ~lo:0 ~hi:nw;
  let np = Patterns.num_patterns pats in
  Array.iter (fun s -> Signature.num_patterns_mask np s) tbl;
  tbl

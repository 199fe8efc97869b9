module Vec = Sutil.Vec

(* Robustness-test hook: when armed, a solve call answers [Unknown]
   without searching — the callers' degraded path must cope. *)
let fault_force_unknown = Obs.Fault.register "sat.force_unknown"

(* Adversarial lying-solver hooks, exempt from the pessimistic-only
   fault contract (see Obs.Fault): they fabricate wrong answers so the
   test suite can demonstrate that certification catches them. Only
   meaningful when a proof checker audits this solver. *)
let fault_flip_unsat = Obs.Fault.register "sat.flip_unsat"
let fault_corrupt_proof = Obs.Fault.register "sat.corrupt_proof"
let fault_bogus_model = Obs.Fault.register "sat.bogus_model"

type result = Sat | Unsat | Unknown

type proof_step =
  | P_input of int array
  | P_learn of int array
  | P_delete of int array

type stats = {
  decisions : int;
  conflicts : int;
  propagations : int;
  learned : int;
  solve_calls : int;
  reductions : int;
  gcs : int;
}

(* ---- clause arena ----

   All clause literals live in one growable [int array]. A clause
   reference (cref) is the word index of its header:

     header word:  size lsl 2  |  dead lsl 1  |  learnt
     learnt only:  +1  LBD (glue) of the clause
                   +2  activity, IEEE-754 single bits (MiniSat stores
                       clause activity in single precision too; only
                       the ordering matters)
     then [size] literal words.

   Clauses are packed back to back with no gaps, so the arena can be
   walked linearly from 0 by decoding headers. Killing a clause only
   sets the dead bit (watchers drop dead crefs lazily); the space is
   reclaimed by [gc], a compaction pass that slides live clauses down,
   rebuilds every watch list, and remaps the trail's reason crefs via
   forwarding pointers written into the old headers. *)

type t = {
  mutable arena : int array;
  mutable arena_len : int; (* first free word *)
  mutable wasted : int; (* words owned by dead clauses *)
  learnts : Vec.t; (* crefs of live learnt clauses, for O(live) scans *)
  mutable orig_clauses : int; (* live originals, stats only *)
  mutable watches : Vec.t array;
  (* per literal: flat (cref, blocker) pairs — the blocker is some other
     literal of the clause (usually the other watch); if it is already
     true the clause is satisfied and the visit never touches the arena.
     A literal nothing has watched yet holds [no_watches]. *)
  no_watches : Vec.t; (* always empty; never pushed to *)
  (* per-variable state *)
  mutable assign : int array; (* -1 unassigned / 0 false / 1 true *)
  mutable vlevel : int array;
  mutable reason : int array; (* cref or -1 *)
  mutable activity : float array;
  mutable phase : bool array; (* saved polarity *)
  mutable heap_pos : int array;
  mutable heap : int array;
  mutable heap_len : int;
  mutable seen : int array; (* analyze scratch *)
  mutable lbd_stamp : int array; (* per-level scratch for glue counting *)
  mutable lbd_epoch : int;
  trail : Vec.t;
  trail_lim : Vec.t;
  mutable qhead : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable nvars : int;
  mutable unsat : bool;
  mutable failed : int list;
  mutable st_decisions : int;
  mutable st_conflicts : int;
  mutable st_props : int;
  mutable st_learned : int;
  mutable st_solves : int;
  mutable st_reduces : int;
  mutable st_gcs : int;
  mutable live_learnts : int;
  mutable max_learnts : int;
  mutable proof : (proof_step -> unit) option;
}

let lit v = v lsl 1
let neg l = l lxor 1
let lit_of v negated = (v lsl 1) lor (if negated then 1 else 0)
let var_of l = l lsr 1
let sign_of l = l land 1

(* header decoding *)
let h_learnt h = h land 1
let h_dead h = h land 2 <> 0
let h_size h = h lsr 2
let clause_words h = 1 + (2 * (h land 1)) + (h lsr 2)
let lits_off c h = c + 1 + (2 * (h land 1))

let create () =
  {
    arena = Array.make 1024 0;
    arena_len = 0;
    wasted = 0;
    learnts = Vec.create ();
    orig_clauses = 0;
    watches = [||];
    no_watches = Vec.create ~capacity:1 ();
    assign = [||];
    vlevel = [||];
    reason = [||];
    activity = [||];
    phase = [||];
    heap_pos = [||];
    heap = Array.make 16 0;
    heap_len = 0;
    seen = [||];
    lbd_stamp = [||];
    lbd_epoch = 0;
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    nvars = 0;
    unsat = false;
    failed = [];
    st_decisions = 0;
    st_conflicts = 0;
    st_props = 0;
    st_learned = 0;
    st_solves = 0;
    st_reduces = 0;
    st_gcs = 0;
    live_learnts = 0;
    max_learnts = 3000;
    proof = None;
  }

let num_vars t = t.nvars

let set_proof_logger t f = t.proof <- f
let set_max_learnts t n = t.max_learnts <- max 16 n

(* ---- proof emission ----

   Every change to the clause database is streamed to the logger:
   original clauses as [P_input] (post-normalization, pre-filtering, so
   the log matches what the caller stated), learnt clauses as [P_learn],
   killed learnts as [P_delete]. A root-level conflict emits the empty
   [P_learn], terminating a DRUP refutation. Arrays handed to the logger
   are fresh copies: clause literals are permuted in place by
   propagation afterwards.

   Deletion is emitted at kill time — the moment the dead bit is set —
   because that is when the clause leaves the solver's logical database
   (a dead clause can no longer propagate). The arena compactor only
   reclaims storage of clauses whose deletion has already been emitted,
   so proofs stay in sync with the logical database no matter when (or
   whether) a GC pass runs. *)

let emit_input t lits =
  match t.proof with
  | None -> ()
  | Some f -> f (P_input (Array.of_list lits))

let emit_learn t lits =
  match t.proof with
  | None -> ()
  | Some f ->
    let lits = Array.copy lits in
    (* Lying-solver hook: corrupt the logged copy (never the solver's
       own clause) so tests can show the checker rejects the line. *)
    if Array.length lits > 0 && Obs.Fault.fires fault_corrupt_proof then
      lits.(0) <- lits.(0) lxor 1;
    f (P_learn lits)

let emit_delete_cref t c =
  match t.proof with
  | None -> ()
  | Some f ->
    let h = t.arena.(c) in
    f (P_delete (Array.sub t.arena (lits_off c h) (h_size h)))

(* ---- max-activity binary heap over variables ---- *)

let heap_less t a b = t.activity.(a) > t.activity.(b)

let heap_swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  t.heap_pos.(b) <- i;
  t.heap_pos.(a) <- j

let rec heap_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_less t t.heap.(i) t.heap.(p) then begin
      heap_swap t i p;
      heap_up t p
    end
  end

let rec heap_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.heap_len && heap_less t t.heap.(l) t.heap.(!best) then best := l;
  if r < t.heap_len && heap_less t t.heap.(r) t.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap t i !best;
    heap_down t !best
  end

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    if t.heap_len = Array.length t.heap then begin
      let h = Array.make (2 * t.heap_len) 0 in
      Array.blit t.heap 0 h 0 t.heap_len;
      t.heap <- h
    end;
    t.heap.(t.heap_len) <- v;
    t.heap_pos.(v) <- t.heap_len;
    t.heap_len <- t.heap_len + 1;
    heap_up t (t.heap_len - 1)
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_len <- t.heap_len - 1;
  t.heap_pos.(v) <- -1;
  if t.heap_len > 0 then begin
    t.heap.(0) <- t.heap.(t.heap_len);
    t.heap_pos.(t.heap.(0)) <- 0;
    heap_down t 0
  end;
  v

let heap_decrease t v = if t.heap_pos.(v) >= 0 then heap_up t t.heap_pos.(v)

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  let old = Array.length t.assign in
  if t.nvars > old then begin
    let n = max t.nvars (max 16 (2 * old)) in
    let extend a fill =
      let b = Array.make n fill in
      Array.blit a 0 b 0 old;
      b
    in
    t.assign <- extend t.assign (-1);
    t.vlevel <- extend t.vlevel 0;
    t.reason <- extend t.reason (-1);
    t.activity <- extend t.activity 0.;
    t.phase <- extend t.phase false;
    t.heap_pos <- extend t.heap_pos (-1);
    t.seen <- extend t.seen 0;
    t.lbd_stamp <- extend t.lbd_stamp 0;
    let neww = Array.make (2 * n) t.no_watches in
    Array.blit t.watches 0 neww 0 (Array.length t.watches);
    t.watches <- neww
  end;
  heap_insert t v;
  v

(* ---- assignment ---- *)

let value_lit t l =
  let a = t.assign.(var_of l) in
  if a < 0 then -1 else a lxor sign_of l

let decision_level t = Vec.length t.trail_lim

let enqueue t l reason =
  let v = var_of l in
  assert (t.assign.(v) < 0);
  t.assign.(v) <- 1 lxor sign_of l;
  t.vlevel.(v) <- decision_level t;
  t.reason.(v) <- reason;
  t.phase.(v) <- sign_of l = 0;
  Vec.push t.trail l

let cancel_until t level =
  if decision_level t > level then begin
    let keep = Vec.get t.trail_lim level in
    for i = Vec.length t.trail - 1 downto keep do
      let v = var_of (Vec.get t.trail i) in
      t.assign.(v) <- -1;
      t.reason.(v) <- -1;
      heap_insert t v
    done;
    Vec.shrink t.trail keep;
    Vec.shrink t.trail_lim level;
    t.qhead <- keep
  end

(* ---- clause allocation ---- *)

let arena_ensure t need =
  if need > Array.length t.arena then begin
    let a = Array.make (max need (2 * Array.length t.arena)) 0 in
    Array.blit t.arena 0 a 0 t.arena_len;
    t.arena <- a
  end

(* Every watcher goes through here: a literal's list is allocated on its
   first watcher, so the shared empty list is never written. *)
let watch t l c blocker =
  let w = t.watches.(l) in
  let w =
    if w != t.no_watches then w
    else begin
      let w = Vec.create ~capacity:4 () in
      t.watches.(l) <- w;
      w
    end
  in
  Vec.push w c;
  Vec.push w blocker

let attach_watches t c l0 l1 =
  watch t (neg l0) c l1;
  watch t (neg l1) c l0

let alloc_clause t lits learnt lbd =
  let size = Array.length lits in
  let extra = if learnt then 2 else 0 in
  arena_ensure t (t.arena_len + 1 + extra + size);
  let c = t.arena_len in
  t.arena.(c) <- (size lsl 2) lor (if learnt then 1 else 0);
  if learnt then begin
    t.arena.(c + 1) <- lbd;
    t.arena.(c + 2) <- 0 (* activity 0.0 as float32 bits *)
  end;
  Array.blit lits 0 t.arena (c + 1 + extra) size;
  t.arena_len <- c + 1 + extra + size;
  if learnt then begin
    t.live_learnts <- t.live_learnts + 1;
    Vec.push t.learnts c
  end
  else t.orig_clauses <- t.orig_clauses + 1;
  attach_watches t c lits.(0) lits.(1);
  c

(* Clause activity lives in the arena as IEEE-754 single bits; the
   32-bit pattern round-trips exactly through the int word. *)
let act_get t c = Int32.float_of_bits (Int32.of_int t.arena.(c + 2))
let act_set t c v = t.arena.(c + 2) <- Int32.to_int (Int32.bits_of_float v)

let cla_bump t c =
  let a = act_get t c +. t.cla_inc in
  act_set t c a;
  if a > 1e20 then begin
    (* Rescale live learnts only — [t.learnts] holds exactly those, so
       the rescue is O(live learnts), not O(total clauses ever added). *)
    for i = 0 to Vec.length t.learnts - 1 do
      let d = Vec.get t.learnts i in
      act_set t d (act_get t d *. 1e-20)
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for u = 0 to t.nvars - 1 do
      t.activity.(u) <- t.activity.(u) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  heap_decrease t v

(* ---- LBD (glue): distinct nonzero decision levels in a clause ---- *)

let lbd_of_range t off size =
  t.lbd_epoch <- t.lbd_epoch + 1;
  let e = t.lbd_epoch in
  let n = ref 0 in
  for k = off to off + size - 1 do
    let lv = t.vlevel.(var_of t.arena.(k)) in
    if lv > 0 && t.lbd_stamp.(lv) <> e then begin
      t.lbd_stamp.(lv) <- e;
      incr n
    end
  done;
  max 1 !n

let lbd_of_lits t lits =
  t.lbd_epoch <- t.lbd_epoch + 1;
  let e = t.lbd_epoch in
  let n = ref 0 in
  Array.iter
    (fun q ->
      let lv = t.vlevel.(var_of q) in
      if lv > 0 && t.lbd_stamp.(lv) <> e then begin
        t.lbd_stamp.(lv) <- e;
        incr n
      end)
    lits;
  max 1 !n

(* ---- propagation ---- *)

exception Conflict of int

let propagate t =
  try
    while t.qhead < Vec.length t.trail do
      let l = Vec.get t.trail t.qhead in
      t.qhead <- t.qhead + 1;
      t.st_props <- t.st_props + 1;
      let falsified = neg l in
      let ws = t.watches.(l) in
      let n = Vec.length ws in
      let i = ref 0 and j = ref 0 in
      let arena = t.arena in
      while !i < n do
        let c = Vec.unsafe_get ws !i in
        let blocker = Vec.unsafe_get ws (!i + 1) in
        i := !i + 2;
        (* Blocking literal: if some other literal of the clause is
           already true, keep the watcher and never touch the arena. *)
        if value_lit t blocker = 1 then begin
          Vec.unsafe_set ws !j c;
          Vec.unsafe_set ws (!j + 1) blocker;
          j := !j + 2
        end
        else begin
          let h = Array.unsafe_get arena c in
          if h_dead h then () (* lazily unhook killed clauses *)
          else begin
            let off = lits_off c h in
            let size = h_size h in
            if Array.unsafe_get arena off = falsified then begin
              Array.unsafe_set arena off (Array.unsafe_get arena (off + 1));
              Array.unsafe_set arena (off + 1) falsified
            end;
            let first = Array.unsafe_get arena off in
            if first <> blocker && value_lit t first = 1 then begin
              (* Satisfied by its other watch: keep, and remember that
                 literal as the new blocker. *)
              Vec.unsafe_set ws !j c;
              Vec.unsafe_set ws (!j + 1) first;
              j := !j + 2
            end
            else begin
              let found = ref false in
              let k = ref 2 in
              while (not !found) && !k < size do
                if value_lit t (Array.unsafe_get arena (off + !k)) <> 0
                then begin
                  Array.unsafe_set arena (off + 1)
                    (Array.unsafe_get arena (off + !k));
                  Array.unsafe_set arena (off + !k) falsified;
                  watch t (neg arena.(off + 1)) c first;
                  found := true
                end;
                incr k
              done;
              if not !found then begin
                Vec.unsafe_set ws !j c;
                Vec.unsafe_set ws (!j + 1) first;
                j := !j + 2;
                if value_lit t first = 0 then begin
                  while !i < n do
                    Vec.unsafe_set ws !j (Vec.unsafe_get ws !i);
                    incr i;
                    incr j
                  done;
                  Vec.shrink ws !j;
                  raise (Conflict c)
                end
                else enqueue t first c
              end
            end
          end
        end
      done;
      Vec.shrink ws !j
    done;
    None
  with Conflict c -> Some c

(* ---- first-UIP conflict analysis ---- *)

let lit_redundant t l =
  let r = t.reason.(var_of l) in
  r >= 0
  &&
  let h = t.arena.(r) in
  let off = lits_off r h in
  let rec go k =
    k >= off + h_size h
    ||
    let q = t.arena.(k) in
    (var_of q = var_of l
    || t.seen.(var_of q) = 1
    || t.vlevel.(var_of q) = 0)
    && go (k + 1)
  in
  go off

let analyze t conflict =
  let learnt = ref [] in
  let path = ref 0 in
  let p = ref (-1) in
  let pvar = ref (-1) in
  let idx = ref (Vec.length t.trail - 1) in
  let cid = ref conflict in
  let continue = ref true in
  while !continue do
    let c = !cid in
    let h = t.arena.(c) in
    if h_learnt h = 1 then begin
      cla_bump t c;
      (* Glue refresh on use: a clause involved in a conflict re-proves
         its worth; keep the smallest LBD ever observed for it. *)
      let g = lbd_of_range t (lits_off c h) (h_size h) in
      if g < t.arena.(c + 1) then t.arena.(c + 1) <- g
    end;
    let off = lits_off c h in
    for k = off to off + h_size h - 1 do
      let q = t.arena.(k) in
      (* Skip the literal whose reason we are expanding. *)
      if var_of q <> !pvar && t.seen.(var_of q) = 0 && t.vlevel.(var_of q) > 0
      then begin
        t.seen.(var_of q) <- 1;
        var_bump t (var_of q);
        if t.vlevel.(var_of q) >= decision_level t then incr path
        else learnt := q :: !learnt
      end
    done;
    while t.seen.(var_of (Vec.get t.trail !idx)) = 0 do
      decr idx
    done;
    let l = Vec.get t.trail !idx in
    decr idx;
    t.seen.(var_of l) <- 0;
    p := neg l;
    pvar := var_of l;
    decr path;
    if !path <= 0 then continue := false
    else begin
      assert (t.reason.(var_of l) >= 0);
      cid := t.reason.(var_of l)
    end
  done;
  let uip = !p in
  let minimized = List.filter (fun q -> not (lit_redundant t q)) !learnt in
  List.iter (fun q -> t.seen.(var_of q) <- 0) !learnt;
  let lits = Array.of_list (uip :: minimized) in
  let blevel =
    if Array.length lits = 1 then 0
    else begin
      let best = ref 1 in
      for i = 2 to Array.length lits - 1 do
        if t.vlevel.(var_of lits.(i)) > t.vlevel.(var_of lits.(!best)) then
          best := i
      done;
      let tmp = lits.(1) in
      lits.(1) <- lits.(!best);
      lits.(!best) <- tmp;
      t.vlevel.(var_of lits.(1))
    end
  in
  (* Glue is computed here, while the conflicting assignment's levels
     are still in place — [cancel_until] runs after. *)
  let glue = lbd_of_lits t lits in
  (lits, blevel, glue)

(* ---- learnt-clause DB reduction and arena compaction ---- *)

let locked t c =
  let h = t.arena.(c) in
  h_size h > 0
  &&
  let l = t.arena.(lits_off c h) in
  value_lit t l = 1 && t.reason.(var_of l) = c

let kill_clause t c =
  emit_delete_cref t c;
  t.arena.(c) <- t.arena.(c) lor 2;
  t.wasted <- t.wasted + clause_words t.arena.(c);
  t.live_learnts <- t.live_learnts - 1

(* Compaction: slide live clauses down over the dead ones, rebuild every
   watch list from the (still watched) first two literals, and remap the
   trail's reason crefs through forwarding pointers left in the old
   headers. Deletions were already emitted when the clauses died, so the
   proof stream needs nothing from this pass. Safe at any decision
   level: every reachable cref (watchers, reasons, learnt list) is
   rewritten here, and the two-watch invariant is positional, so
   re-attaching positions 0 and 1 preserves it. *)
let gc t =
  t.st_gcs <- t.st_gcs + 1;
  let live = t.arena_len - t.wasted in
  let narena = Array.make (max 1024 (2 * live)) 0 in
  let i = ref 0 and j = ref 0 in
  while !i < t.arena_len do
    let h = t.arena.(!i) in
    let w = clause_words h in
    if h_dead h then i := !i + w
    else begin
      Array.blit t.arena !i narena !j w;
      (* forwarding pointer *)
      t.arena.(!i) <- -1 - !j;
      i := !i + w;
      j := !j + w
    end
  done;
  (* Reasons: every recorded reason clause is live (locked clauses are
     never killed), so its old header now holds the forwarding cref. *)
  for k = 0 to Vec.length t.trail - 1 do
    let v = var_of (Vec.get t.trail k) in
    let r = t.reason.(v) in
    if r >= 0 then begin
      let f = t.arena.(r) in
      assert (f < 0);
      t.reason.(v) <- -f - 1
    end
  done;
  for k = 0 to Vec.length t.learnts - 1 do
    let f = t.arena.(Vec.get t.learnts k) in
    assert (f < 0);
    Vec.set t.learnts k (-f - 1)
  done;
  t.arena <- narena;
  t.arena_len <- !j;
  t.wasted <- 0;
  Array.iter Vec.clear t.watches;
  let c = ref 0 in
  while !c < t.arena_len do
    let h = t.arena.(!c) in
    let off = lits_off !c h in
    attach_watches t !c t.arena.(off) t.arena.(off + 1);
    c := !c + clause_words h
  done

let maybe_gc t =
  if t.wasted > 0 && t.wasted * 4 > t.arena_len then gc t

(* Reduction keeps: locked clauses (they are reasons on the trail),
   binary clauses, and glue <= 2 clauses (unconditionally — they encode
   near-implications and are the cheapest to have proven). The rest is
   ranked worst-first by (higher LBD, lower activity) and the worst half
   is killed. *)
let reduce_db t =
  t.st_reduces <- t.st_reduces + 1;
  let cands = ref [] in
  let ncands = ref 0 in
  for i = 0 to Vec.length t.learnts - 1 do
    let c = Vec.get t.learnts i in
    let h = t.arena.(c) in
    if (not (h_dead h)) && h_size h > 2 && t.arena.(c + 1) > 2
       && not (locked t c)
    then begin
      cands := c :: !cands;
      incr ncands
    end
  done;
  let arr = Array.make !ncands 0 in
  List.iteri (fun i c -> arr.(i) <- c) !cands;
  Array.sort
    (fun a b ->
      let ga = t.arena.(a + 1) and gb = t.arena.(b + 1) in
      if ga <> gb then Int.compare gb ga
      else Float.compare (act_get t a) (act_get t b))
    arr;
  let drop = Array.length arr / 2 in
  for i = 0 to drop - 1 do
    kill_clause t arr.(i)
  done;
  (* Compact the live-learnt list in place: O(live), and it keeps every
     later activity rescale and reduction O(live) too. *)
  if drop > 0 then begin
    let w = ref 0 in
    for i = 0 to Vec.length t.learnts - 1 do
      let c = Vec.get t.learnts i in
      if not (h_dead t.arena.(c)) then begin
        Vec.set t.learnts !w c;
        incr w
      end
    done;
    Vec.shrink t.learnts !w
  end;
  maybe_gc t

(* ---- clause addition (level 0 only) ---- *)

let add_clause t lits =
  cancel_until t 0;
  if not t.unsat then begin
    let lits = List.sort_uniq Int.compare lits in
    List.iter
      (fun l ->
        if l < 0 || var_of l >= t.nvars then
          invalid_arg "Solver.add_clause: unknown variable")
      lits;
    emit_input t lits;
    (* After sorting, a variable's two polarities are adjacent (2v and
       2v+1 differ only in bit 0), so tautology is one linear scan. *)
    let rec adjacent_taut = function
      | a :: (b :: _ as rest) -> a lxor b = 1 || adjacent_taut rest
      | _ -> false
    in
    let tauto =
      adjacent_taut lits || List.exists (fun l -> value_lit t l = 1) lits
    in
    if not tauto then begin
      (match List.filter (fun l -> value_lit t l <> 0) lits with
      | [] -> t.unsat <- true
      | [ l ] ->
        enqueue t l (-1);
        if propagate t <> None then t.unsat <- true
      | lits -> ignore (alloc_clause t (Array.of_list lits) false 0));
      if t.unsat then emit_learn t [||]
    end
  end

(* ---- search ---- *)

let luby i =
  (* Element i (0-based) of 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
  let k = ref 1 and size = ref 1 in
  while !size < i + 1 do
    incr k;
    size := (2 * !size) + 1
  done;
  let i = ref i in
  while !size - 1 <> !i do
    size := (!size - 1) / 2;
    decr k;
    i := !i mod !size
  done;
  float_of_int (1 lsl (!k - 1))

let pick_branch t =
  let rec go () =
    if t.heap_len = 0 then -1
    else
      let v = heap_pop t in
      if t.assign.(v) < 0 then v else go ()
  in
  go ()

let attach_learnt t lits glue =
  t.st_learned <- t.st_learned + 1;
  emit_learn t lits;
  if Array.length lits = 1 then enqueue t lits.(0) (-1)
  else begin
    let c = alloc_clause t lits true glue in
    cla_bump t c;
    enqueue t lits.(0) c
  end

(* Propagations between wall-clock reads while a deadline is set: rare
   enough that the clock never shows in profiles, frequent enough that a
   hard query overshoots its deadline by microseconds, not seconds. *)
let deadline_stride = 2048

(* Glue-aware restart postponement: when the exponential moving average
   of recent glue is clearly below the long-run average, the learnt
   clauses are unusually good — the search is digging somewhere
   productive, so a due Luby restart is deferred a short window instead
   of abandoning the spot. Both averages are per-call and deterministic. *)
let lbd_fast_horizon = 32.
let lbd_slow_horizon = 4096.
let postpone_factor = 0.9
let postpone_window = 50.
let postpone_warmup = 100

let search t ~assumptions ~conflict_limit ~deadline =
  let n_assumps = Array.length assumptions in
  let restart_base = 100. in
  let restarts = ref 0 in
  let conflicts_here = ref 0 in
  let next_restart = ref (restart_base *. luby 0) in
  let lbd_fast = ref 0. and lbd_slow = ref 0. in
  let result = ref None in
  let next_deadline_check =
    ref (match deadline with Some _ -> t.st_props + deadline_stride | None -> max_int)
  in
  while !result = None do
    if t.st_props >= !next_deadline_check then begin
      next_deadline_check := t.st_props + deadline_stride;
      match deadline with
      | Some d when Obs.Clock.now () > d -> result := Some Unknown
      | _ -> ()
    end;
    if !result = None then
    match propagate t with
    | Some cid ->
      t.st_conflicts <- t.st_conflicts + 1;
      incr conflicts_here;
      if decision_level t = 0 then begin
        t.unsat <- true;
        emit_learn t [||];
        result := Some Unsat
      end
      else begin
        let lits, blevel, glue = analyze t cid in
        lbd_fast := !lbd_fast +. ((float_of_int glue -. !lbd_fast) /. lbd_fast_horizon);
        lbd_slow := !lbd_slow +. ((float_of_int glue -. !lbd_slow) /. lbd_slow_horizon);
        if blevel < n_assumps && decision_level t <= n_assumps then begin
          (* The conflict clause is falsified by the assumptions alone:
             the assumption set is unsatisfiable. *)
          t.failed <- Array.to_list assumptions;
          cancel_until t blevel;
          attach_learnt t lits glue;
          result := Some Unsat
        end
        else begin
          cancel_until t blevel;
          attach_learnt t lits glue
        end;
        t.var_inc <- t.var_inc /. 0.95;
        t.cla_inc <- t.cla_inc /. 0.999;
        (match conflict_limit with
         | Some limit when !conflicts_here >= limit && !result = None ->
           result := Some Unknown
         | _ -> ());
        if !result = None && float_of_int !conflicts_here >= !next_restart
        then begin
          if
            !conflicts_here > postpone_warmup
            && !lbd_fast < postpone_factor *. !lbd_slow
          then
            (* Productive streak: check again shortly instead of
               restarting now. *)
            next_restart := float_of_int !conflicts_here +. postpone_window
          else begin
            incr restarts;
            next_restart :=
              float_of_int !conflicts_here +. (restart_base *. luby !restarts);
            cancel_until t (min n_assumps (decision_level t))
          end
        end;
        if !result = None && t.live_learnts > t.max_learnts then begin
          t.max_learnts <- t.max_learnts + (t.max_learnts / 2);
          reduce_db t
        end
      end
    | None ->
      if decision_level t < n_assumps then begin
        let a = assumptions.(decision_level t) in
        match value_lit t a with
        | 1 -> Vec.push t.trail_lim (Vec.length t.trail)
        | 0 ->
          t.failed <- [ a ];
          result := Some Unsat
        | _ ->
          t.st_decisions <- t.st_decisions + 1;
          Vec.push t.trail_lim (Vec.length t.trail);
          enqueue t a (-1)
      end
      else begin
        let v = pick_branch t in
        if v < 0 then result := Some Sat
        else begin
          t.st_decisions <- t.st_decisions + 1;
          Vec.push t.trail_lim (Vec.length t.trail);
          enqueue t (lit_of v (not t.phase.(v))) (-1)
        end
      end
  done;
  match !result with Some r -> r | None -> assert false

let solve ?(assumptions = []) ?conflict_limit ?deadline t =
  t.st_solves <- t.st_solves + 1;
  cancel_until t 0;
  t.failed <- [];
  (* Between queries is the cheapest moment to reclaim arena garbage:
     no deep trail to remap, and incremental callers (the sweep engine
     issues thousands of queries on one solver) would otherwise carry
     every dead slot forever. *)
  maybe_gc t;
  List.iter
    (fun a ->
      if a < 0 || var_of a >= t.nvars then
        invalid_arg "Solver.solve: unknown assumption variable")
    assumptions;
  if t.unsat then Unsat
  else if Obs.Fault.fires fault_force_unknown then Unknown
  else if
    (* An already-expired deadline answers [Unknown] immediately — tiny
       problems must not sneak a full search past the budget. *)
    match deadline with Some d -> Obs.Clock.now () > d | None -> false
  then Unknown
  else
    match propagate t with
    | Some _ ->
      t.unsat <- true;
      emit_learn t [||];
      Unsat
    | None ->
      let r =
        search t ~assumptions:(Array.of_list assumptions) ~conflict_limit
          ~deadline
      in
      let r =
        (* Lying-solver hook: report a satisfiable query as [Unsat]
           without marking the solver unsatisfiable. Uncertified callers
           believe the lie; a proof checker has no replayable conflict
           and rejects it. *)
        match r with
        | Sat when Obs.Fault.fires fault_flip_unsat -> Unsat
        | r -> r
      in
      (match r with
       | Sat ->
         (* The model is total by construction: every unassigned
            variable sits in the branching heap, and [Sat] is only
            reached once the heap is drained. *)
         assert (t.heap_len = 0);
         (* Lying-solver hook: flip the most recently propagated
            non-root variable, falsifying its reason clause — a bogus
            witness that model validation must catch. *)
         if Obs.Fault.fires fault_bogus_model then begin
           let i = ref (Vec.length t.trail - 1) in
           let v = ref (-1) in
           while !v < 0 && !i >= 0 do
             let u = var_of (Vec.get t.trail !i) in
             if t.reason.(u) >= 0 && t.vlevel.(u) > 0 then v := u;
             decr i
           done;
           if !v >= 0 then t.assign.(!v) <- 1 - t.assign.(!v)
         end
       | Unsat | Unknown -> cancel_until t 0);
      r

let value t l =
  let v = var_of l in
  if v >= t.nvars || t.assign.(v) < 0 then false
  else t.assign.(v) lxor sign_of l = 1

let var_value t v =
  if v >= t.nvars || t.assign.(v) < 0 then None else Some (t.assign.(v) = 1)

let model t = Array.init t.nvars (fun v -> t.assign.(v) = 1)

let failed_assumptions t = t.failed

(* ---- introspection ---- *)

let live_learnts t = t.live_learnts
let arena_words t = t.arena_len
let arena_wasted t = t.wasted
let gc_count t = t.st_gcs

let debug_count_learnts t =
  let n = ref 0 in
  let c = ref 0 in
  while !c < t.arena_len do
    let h = t.arena.(!c) in
    if h_learnt h = 1 && not (h_dead h) then incr n;
    c := !c + clause_words h
  done;
  !n

let stats t =
  {
    decisions = t.st_decisions;
    conflicts = t.st_conflicts;
    propagations = t.st_props;
    learned = t.st_learned;
    solve_calls = t.st_solves;
    reductions = t.st_reduces;
    gcs = t.st_gcs;
  }

let stats_assoc t =
  [
    ("decisions", t.st_decisions);
    ("conflicts", t.st_conflicts);
    ("propagations", t.st_props);
    ("learned", t.st_learned);
    ("solve_calls", t.st_solves);
    ("db_reductions", t.st_reduces);
    ("arena_gcs", t.st_gcs);
  ]

let pp_stats ppf t =
  Format.fprintf ppf "vars=%d clauses=%d decisions=%d conflicts=%d props=%d"
    t.nvars
    (t.orig_clauses + t.live_learnts)
    t.st_decisions t.st_conflicts t.st_props

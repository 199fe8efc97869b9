(* Independent reverse-unit-propagation (RUP) checker.

   Deliberately shares no propagation code with Solver: its own clause
   table, its own watch scheme (watch lists are indexed by the watched
   literal itself, scanned when that literal becomes false — the
   opposite convention from the solver's), its own trail. The overlap
   is limited to the literal packing and the Vec container; see the
   trusted-base statement in drup.mli.

   Layout invariants:
   - the trail is a pure root trail between operations ([qhead] fully
     caught up); RUP checks and certifications push a temporary suffix
     and roll it back;
   - the root assignment only ever grows: deletions that would erase
     the reason clause of a root propagation are skipped, so a
     root-true literal stays true forever;
   - watched literals live at positions 0 and 1 of each clause's
     literal array (permuted in place);
   - clauses satisfied at root, and root unit clauses once propagated,
     are left unwatched — by monotonicity they can never propagate
     anything new. *)

module Vec = Sutil.Vec

type clause = { lits : int array; mutable dead : bool }

type t = {
  mutable clauses : clause array;
  mutable num_clauses : int;
  mutable watches : Vec.t array;
      (* per literal: ids watching it; [no_watches] until the first *)
  no_watches : Vec.t; (* always empty; never pushed to *)
  mutable assign : int array; (* per var: -1 unassigned / 0 false / 1 true *)
  mutable reason : int array; (* per var: clause id or -1 *)
  mutable nvars : int;
  trail : Vec.t;
  mutable qhead : int;
  mutable index : (int list, int list) Hashtbl.t option;
      (* sorted lits -> live ids, most recent first; built by the first
         [delete], so a replay that never deletes never hashes a clause *)
  mutable conflicting : bool;
  mutable checked : int;
  mutable rejected : int;
  mutable deleted : int;
  mutable last_error : string option;
}

let dead_clause = { lits = [||]; dead = true }

let create () =
  {
    clauses = Array.make 64 dead_clause;
    num_clauses = 0;
    watches = [||];
    no_watches = Vec.create ~capacity:1 ();
    assign = [||];
    reason = [||];
    nvars = 0;
    trail = Vec.create ();
    qhead = 0;
    index = None;
    conflicting = false;
    checked = 0;
    rejected = 0;
    deleted = 0;
    last_error = None;
  }

let var_of l = l lsr 1

let grow_vars t nvars =
  if nvars > t.nvars then begin
    let old = Array.length t.assign in
    if nvars > old then begin
      let n = max nvars (max 16 (2 * old)) in
      let extend a fill =
        let b = Array.make n fill in
        Array.blit a 0 b 0 old;
        b
      in
      t.assign <- extend t.assign (-1);
      t.reason <- extend t.reason (-1);
      let neww = Array.make (2 * n) t.no_watches in
      Array.blit t.watches 0 neww 0 (Array.length t.watches);
      t.watches <- neww
    end;
    t.nvars <- nvars
  end

let grow_for_lits t lits =
  List.iter
    (fun l ->
      if l < 0 then invalid_arg "Drup: negative literal";
      grow_vars t (var_of l + 1))
    lits

(* Every watch goes through here: a literal's list is allocated on its
   first watch, so the shared empty list is never written. *)
let watch t l id =
  let ws = t.watches.(l) in
  let ws =
    if ws != t.no_watches then ws
    else begin
      let ws = Vec.create ~capacity:4 () in
      t.watches.(l) <- ws;
      ws
    end
  in
  Vec.push ws id

let val_lit t l =
  let a = t.assign.(var_of l) in
  if a < 0 then -1 else a lxor (l land 1)

let enqueue t l reason =
  t.assign.(var_of l) <- 1 lxor (l land 1);
  t.reason.(var_of l) <- reason;
  Vec.push t.trail l

let rollback t mark =
  for i = Vec.length t.trail - 1 downto mark do
    let v = var_of (Vec.get t.trail i) in
    t.assign.(v) <- -1;
    t.reason.(v) <- -1
  done;
  Vec.shrink t.trail mark;
  t.qhead <- mark

(* Exhaustive unit propagation from the current queue position.
   Returns [false] on conflict (queue left mid-way; caller rolls back
   or records refutation). *)
let propagate t =
  let ok = ref true in
  while !ok && t.qhead < Vec.length t.trail do
    let p = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    let f = p lxor 1 in
    (* every clause watching [f] just lost that watch *)
    let ws = t.watches.(f) in
    let n = Vec.length ws in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let cid = Vec.get ws !i in
      incr i;
      let c = t.clauses.(cid) in
      if not c.dead then begin
        let lits = c.lits in
        if lits.(0) = f then begin
          lits.(0) <- lits.(1);
          lits.(1) <- f
        end;
        if val_lit t lits.(0) = 1 then begin
          Vec.set ws !j cid;
          incr j
        end
        else begin
          let len = Array.length lits in
          let k = ref 2 in
          let moved = ref false in
          while (not !moved) && !k < len do
            if val_lit t lits.(!k) <> 0 then begin
              lits.(1) <- lits.(!k);
              lits.(!k) <- f;
              watch t lits.(1) cid;
              moved := true
            end;
            incr k
          done;
          if not !moved then begin
            Vec.set ws !j cid;
            incr j;
            match val_lit t lits.(0) with
            | 0 ->
              (* conflict: retain the rest of the watch list *)
              while !i < n do
                Vec.set ws !j (Vec.get ws !i);
                incr i;
                incr j
              done;
              ok := false
            | _ -> enqueue t lits.(0) cid
          end
        end
      end
    done;
    Vec.shrink ws !j
  done;
  !ok

(* On sorted literals a variable's two polarities are adjacent (packed
   literals 2v and 2v+1 differ only in bit 0), so tautology is a linear
   adjacency scan — callers sort with [List.sort_uniq Int.compare]
   first. *)
let rec tautology = function
  | a :: (b :: _ as rest) -> a lxor b = 1 || tautology rest
  | _ -> false

let index_add index key id =
  let prev = Option.value ~default:[] (Hashtbl.find_opt index key) in
  Hashtbl.replace index key (id :: prev)

(* Store a (sorted, non-tautological) clause and integrate it into the
   root state: conflict, unit propagation, or watches as appropriate. *)
let add_core t lits =
  if t.num_clauses = Array.length t.clauses then begin
    let c = Array.make (2 * t.num_clauses) dead_clause in
    Array.blit t.clauses 0 c 0 t.num_clauses;
    t.clauses <- c
  end;
  let id = t.num_clauses in
  let arr = Array.of_list lits in
  t.clauses.(id) <- { lits = arr; dead = false };
  t.num_clauses <- id + 1;
  Option.iter (fun index -> index_add index lits id) t.index;
  if not t.conflicting then begin
    (* move non-false literals to the front *)
    let nonfalse = ref 0 in
    Array.iteri
      (fun i l ->
        if val_lit t l <> 0 then begin
          arr.(i) <- arr.(!nonfalse);
          arr.(!nonfalse) <- l;
          incr nonfalse
        end)
      arr;
    if !nonfalse = 0 then t.conflicting <- true
    else if Array.exists (fun l -> val_lit t l = 1) arr then
      () (* satisfied at root, inert by monotonicity *)
    else if !nonfalse = 1 then begin
      enqueue t arr.(0) id;
      if not (propagate t) then t.conflicting <- true
    end
    else begin
      watch t arr.(0) id;
      watch t arr.(1) id
    end
  end

let add_input t lits =
  grow_for_lits t lits;
  let lits = List.sort_uniq Int.compare lits in
  if not (tautology lits) then add_core t lits

let pp_clause lits =
  if lits = [] then "<empty>"
  else
    String.concat " "
      (List.map
         (fun l ->
           string_of_int (if l land 1 = 1 then -(var_of l + 1) else var_of l + 1))
         lits)

(* Is [lits] implied by reverse unit propagation? Assume its negation
   on a temporary trail suffix; a conflict (or an immediate
   contradiction with the root state) proves implication. *)
let rup t lits =
  t.conflicting
  ||
  let mark = Vec.length t.trail in
  let verdict = ref None in
  List.iter
    (fun l ->
      if !verdict = None then
        match val_lit t l with
        | 1 -> verdict := Some true (* assuming ¬l contradicts the root *)
        | 0 -> ()
        | _ -> enqueue t (l lxor 1) (-1))
    lits;
  let r =
    match !verdict with Some r -> r | None -> not (propagate t)
  in
  rollback t mark;
  r

let add_derived t lits =
  grow_for_lits t lits;
  let lits = List.sort_uniq Int.compare lits in
  if tautology lits then begin
    t.checked <- t.checked + 1;
    Ok ()
  end
  else if rup t lits then begin
    t.checked <- t.checked + 1;
    add_core t lits;
    Ok ()
  end
  else begin
    t.rejected <- t.rejected + 1;
    let msg =
      Printf.sprintf "derived clause [%s] is not reverse-unit-propagation"
        (pp_clause lits)
    in
    t.last_error <- Some msg;
    Error msg
  end

(* A clause is the reason of a root propagation iff one of its literals
   is root-true with this clause recorded as its reason. *)
let is_root_reason t id c =
  Array.exists
    (fun l -> val_lit t l = 1 && t.reason.(var_of l) = id)
    c.lits

(* Propagation permutes stored literal arrays, so the index keys each
   live clause by its sorted literals; ascending ids leave the most
   recent duplicate at the head of its list. *)
let live_index t =
  match t.index with
  | Some index -> index
  | None ->
    let index = Hashtbl.create (max 64 t.num_clauses) in
    for id = 0 to t.num_clauses - 1 do
      let c = t.clauses.(id) in
      if not c.dead then
        index_add index (List.sort Int.compare (Array.to_list c.lits)) id
    done;
    t.index <- Some index;
    index

let delete t lits =
  grow_for_lits t lits;
  let key = List.sort_uniq Int.compare lits in
  let index = live_index t in
  match Hashtbl.find_opt index key with
  | None -> ()
  | Some ids -> (
    let deletable id =
      let c = t.clauses.(id) in
      (not c.dead) && not (is_root_reason t id c)
    in
    match List.find_opt deletable ids with
    | None -> ()
    | Some id ->
      t.clauses.(id).dead <- true;
      t.deleted <- t.deleted + 1;
      Hashtbl.replace index key (List.filter (fun i -> i <> id) ids))

let feed t step =
  match step with
  | Solver.P_input a -> add_input t (Array.to_list a)
  | Solver.P_learn a -> ignore (add_derived t (Array.to_list a))
  | Solver.P_delete a -> delete t (Array.to_list a)

let attach t solver = Solver.set_proof_logger solver (Some (feed t))

let conflicting t = t.conflicting

let certify_unsat t ~assumptions =
  if t.conflicting then Ok ()
  else begin
    let mark = Vec.length t.trail in
    let conflict = ref false in
    List.iter
      (fun a ->
        if not !conflict then begin
          grow_vars t (var_of a + 1);
          match val_lit t a with
          | 0 -> conflict := true
          | 1 -> ()
          | _ ->
            enqueue t a (-1);
            if not (propagate t) then conflict := true
        end)
      assumptions;
    rollback t mark;
    if !conflict then Ok ()
    else
      Error
        (if assumptions = [] then
           "no refutation: the proof does not derive the empty clause"
         else
           "assumptions propagate without conflict on the checked database")
  end

let certify_model t ~value =
  if t.conflicting then Error "database is refuted; no model can exist"
  else begin
    let bad = ref None in
    (try
       for i = 0 to t.num_clauses - 1 do
         let c = t.clauses.(i) in
         if (not c.dead) && not (Array.exists value c.lits) then begin
           bad := Some c.lits;
           raise Exit
         end
       done
     with Exit -> ());
    match !bad with
    | None -> Ok ()
    | Some lits ->
      let msg =
        Printf.sprintf "claimed model falsifies clause [%s]"
          (pp_clause (Array.to_list lits))
      in
      t.last_error <- Some msg;
      Error msg
  end

let num_checked t = t.checked
let num_rejected t = t.rejected
let num_deleted t = t.deleted
let last_error t = t.last_error

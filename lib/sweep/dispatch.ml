(* Parallel SAT dispatch: a pool of solver domains that answers every
   candidate query the sweep engine's window tiers leave open, each with
   one of two per-query strategies.

   - Incremental (no cache): each pool member owns one incremental
     [Sat.Solver] with its own [Sat.Tseitin] environment over the
     shared fresh network (and, in certified mode, its own [Sat.Drup]
     checker attached before the first clause), and loads each query's
     cone CNF on demand.
   - Cached (a cross-run cache armed): the member extracts the pair's
     canonical cone ([Cone_cert]), looks its key up, re-validates a hit
     and otherwise proves the pair on a throwaway solver and stores the
     verdict.

   Both strategies answer with a [Sat.Tseitin.equiv_result], so one
   walk does the retries, the counterexample validation and the
   per-task counterexample filter, and one [tally] turns answers into
   counters. The engine runs in waves: it collects a batch of tasks (one
   per fresh node, each a pre-filtered candidate list), freezes the
   network, and calls {!run_wave}; the members drain the task queue,
   the pairs whose conflict schedule ran dry are re-attacked
   cube-and-conquer style, and the members' counters join the sweep's
   [Stats]. The engine — the single writer — then applies the results
   in task order.

   The network is never mutated while workers run, so workers only ever
   read it; all worker-written state is confined to each task's own
   result slot and the member's own context. Two things are shared
   across domains: the [Obs.Budget], whose sticky atomic exhaustion
   lets any worker trip degradation for everyone, and the cache store,
   which must take concurrent calls ([Svc.Cache] locks its index). *)

module A = Aig.Network
module L = Aig.Lit
module T = Sat.Tseitin

type cache_found = Cache_hit of Obs.Json.t | Cache_miss | Cache_corrupt

type cache_ops = {
  cache_find : key:string -> cache_found;
  cache_store : key:string -> Obs.Json.t -> unit;
}

type cand = {
  c_rep : int;  (* earlier fresh node to compare against *)
  c_compl : bool;  (* complement relation per the frozen signatures *)
  c_window_eq : bool;
      (* the exhaustive window already proved this equality — the walk
         merges here without a solver query. Always the last candidate
         of its task: nothing after it is reachable. *)
}

type task = { t_node : int; t_cands : cand list }

type outcome =
  | Merged of L.t * bool  (* proven target; [true] = window-equal, no SAT *)
  | Exhausted  (* no proof: candidates, certificate or cubes ran out *)
  | Stopped  (* shared budget exhausted mid-walk *)

type result = {
  mutable r_outcome : outcome;
  mutable r_ces : bool array list;
      (* validated counterexamples, in reverse attempt order *)
}

type domain_ctx = {
  solver : Sat.Solver.t;
  env : T.env;
  cert : Sat.Drup.t option;
  (* Cumulative-counter snapshots at the last budget charge: each query
     charges only its delta, so the shared budget's conflict and
     propagation caps hold across the whole pool. *)
  mutable charged_conflicts : int;
  mutable charged_propagations : int;
  mutable counts : Stats.t;
      (* this member's query outcomes and throwaway-solver totals since
         the last join; only the fields {!join} moves are used *)
  (* Scratch for single-pattern cone evaluation ({!ce_distinguishes}) —
     an epoch-stamped memo, so repeated cone walks under different
     assignments reuse the arrays without clearing them. *)
  mutable eval_val : int array;
  mutable eval_stamp : int array;
  mutable eval_epoch : int;
}

type t = {
  pool : Sutil.Par.Pool.t;
  net : A.t;
  ctxs : domain_ctx array;
  budget : Obs.Budget.t;
  stats : Stats.t;  (* the sweep's, written only on the calling domain *)
  certify : bool;
  conflict_limits : int list;
  cache : cache_ops option;
  cache_paranoid : bool;
}

let create ~domains ~certify ~conflict_limits ~cache ~cache_paranoid net
    budget stats =
  let domains = max 1 domains in
  let ctxs =
    Array.init domains (fun _ ->
        let solver = Sat.Solver.create () in
        (* Thousands of small queries share this solver: size its
           learnt-DB ceiling to the largest per-query conflict budget
           rather than a whole-run default, so LBD reduction keeps the
           database proportional to a query. *)
        if conflict_limits <> [] then
          Sat.Solver.set_max_learnts solver
            (max 2000 (4 * List.fold_left max 0 conflict_limits));
        let cert =
          if certify then begin
            (* Per-domain proof stream: the checker must observe this
               solver's clauses from the first Tseitin clause on. *)
            let d = Sat.Drup.create () in
            Sat.Drup.attach d solver;
            Some d
          end
          else None
        in
        {
          solver;
          env = T.create net solver;
          cert;
          charged_conflicts = 0;
          charged_propagations = 0;
          counts = Stats.create ();
          eval_val = [||];
          eval_stamp = [||];
          eval_epoch = 0;
        })
  in
  {
    pool = Sutil.Par.Pool.create ~domains;
    net;
    ctxs;
    budget;
    stats;
    certify;
    conflict_limits;
    cache;
    cache_paranoid;
  }

let add_solver (s : Stats.t) (x : Sat.Solver.stats) =
  s.sat_decisions <- s.sat_decisions + x.decisions;
  s.sat_conflicts <- s.sat_conflicts + x.conflicts;
  s.sat_propagations <- s.sat_propagations + x.propagations;
  s.sat_learned <- s.sat_learned + x.learned

(* The pool's one way into the sweep's [Stats]: once the workers have
   joined, the calling domain moves every member's counters over. *)
let join t =
  let s = t.stats in
  Array.iter
    (fun dc ->
      let m = dc.counts in
      s.sat_sat <- s.sat_sat + m.Stats.sat_sat;
      s.sat_unsat <- s.sat_unsat + m.sat_unsat;
      s.sat_undet <- s.sat_undet + m.sat_undet;
      s.sat_retries <- s.sat_retries + m.sat_retries;
      s.certified_unsat <- s.certified_unsat + m.certified_unsat;
      s.certified_models <- s.certified_models + m.certified_models;
      s.certificate_rejected <-
        s.certificate_rejected + m.certificate_rejected;
      s.cache_hits <- s.cache_hits + m.cache_hits;
      s.cache_misses <- s.cache_misses + m.cache_misses;
      s.cache_rejected <- s.cache_rejected + m.cache_rejected;
      s.sat_decisions <- s.sat_decisions + m.sat_decisions;
      s.sat_conflicts <- s.sat_conflicts + m.sat_conflicts;
      s.sat_propagations <- s.sat_propagations + m.sat_propagations;
      s.sat_learned <- s.sat_learned + m.sat_learned;
      dc.counts <- Stats.create ())
    t.ctxs

let shutdown t =
  Sutil.Par.Pool.shutdown t.pool;
  Array.iter
    (fun dc -> add_solver dc.counts (Sat.Solver.stats dc.solver))
    t.ctxs;
  join t

(* Evaluate both cones under a counterexample and report whether it
   tells [nd] and [r]-with-[compl] apart. The walk uses it to skip
   candidates an earlier counterexample already refutes — the
   signatures are frozen for the whole wave, so without it every node
   of a fat stale class would query every stale candidate, a quadratic
   blowup — and to validate counterexamples: certified-mode solver
   models and every cached one. *)
let ce_distinguishes dc net ce nd r compl =
  let n = A.num_nodes net in
  if Array.length dc.eval_stamp < n then begin
    let cap = max n (2 * Array.length dc.eval_stamp) in
    dc.eval_val <- Array.make cap 0;
    dc.eval_stamp <- Array.make cap 0;
    dc.eval_epoch <- 0
  end;
  dc.eval_epoch <- dc.eval_epoch + 1;
  let epoch = dc.eval_epoch in
  let rec eval_node nd =
    if dc.eval_stamp.(nd) = epoch then dc.eval_val.(nd)
    else begin
      let v =
        match A.kind net nd with
        | A.Const -> 0
        | A.Pi i -> if i < Array.length ce && ce.(i) then 1 else 0
        | A.And ->
          let side f =
            let v = eval_node (L.node f) in
            if L.is_compl f then 1 - v else v
          in
          side (A.fanin0 net nd) land side (A.fanin1 net nd)
      in
      dc.eval_stamp.(nd) <- epoch;
      dc.eval_val.(nd) <- v;
      v
    end
  in
  let a = eval_node nd in
  let b =
    let v = eval_node r in
    if compl then 1 - v else v
  in
  a <> b

(* Certified mode: the CNF-level model check already passed; demand
   that the model also distinguishes the two cones on the AIG itself,
   which closes the remaining gap (encoding or PI-extraction bugs). A
   model that does not is a rejected certificate. *)
let vet t dc nd r compl = function
  | T.Counterexample ce
    when t.certify && not (ce_distinguishes dc t.net ce nd r compl) ->
    T.Uncertified "counterexample does not distinguish the pair"
  | answer -> answer

(* The incremental strategy: one query on this member's solver, its
   work charged to the shared budget. Any domain's charge can trip the
   sticky conflict/propagation caps; the budget checks in every walk
   then stop the whole pool. *)
let query t dc ?assume ?conflict_limit nd r compl =
  let answer =
    T.check_equiv ?conflict_limit
      ?deadline:(Obs.Budget.deadline t.budget)
      ?certify:dc.cert ?assume dc.env (L.of_node nd false) (L.of_node r compl)
  in
  let s = Sat.Solver.stats dc.solver in
  let conflicts = s.conflicts - dc.charged_conflicts in
  let propagations = s.propagations - dc.charged_propagations in
  dc.charged_conflicts <- s.conflicts;
  dc.charged_propagations <- s.propagations;
  ignore (Obs.Budget.charge ~conflicts ~propagations t.budget);
  vet t dc nd r compl answer

(* The cache strategy. Nothing read from the store is trusted: an
   equivalence entry is served only after its certificate replays
   (certified or paranoid mode; otherwise the store's checksum gates
   it), a counterexample entry only after it distinguishes the two
   cones on the AIG — unconditionally, since a non-distinguishing
   pattern would quietly poison the class refinement. A miss or a
   rejected entry is proven on a throwaway solver that runs the whole
   conflict schedule, and its verdict is stored; undetermined and
   rejected answers never are, so a warm sweep replays the cold run's
   verdicts. Returns the answer and whether the store served it. *)
let query_cached t dc ops ~conflict_limits nd r compl =
  let pc = Cone_cert.extract t.net (L.of_node nd false) (L.of_node r compl) in
  let key = pc.Cone_cert.pc_key in
  (* Entries hold counterexamples over the extracted cone's PIs. *)
  let expand small =
    let ce = Array.make (A.num_pis t.net) false in
    Array.iteri
      (fun i v -> if v then ce.(pc.Cone_cert.pc_leaves.(i)) <- true)
      small;
    ce
  in
  let solve () =
    let outcome, cs =
      Cone_cert.solve ~conflict_limits
        ?deadline:(Obs.Budget.deadline t.budget)
        ~certify:t.certify pc
    in
    let s = cs.Cone_cert.s_solver in
    ignore
      (Obs.Budget.charge ~conflicts:s.conflicts ~propagations:s.propagations
         t.budget);
    let counts = dc.counts in
    add_solver counts s;
    (* Each retried call was an undetermined outcome, as in the
       incremental strategy's schedule. *)
    counts.sat_undet <- counts.sat_undet + cs.Cone_cert.s_retries;
    counts.sat_retries <- counts.sat_retries + cs.Cone_cert.s_retries;
    let store e = ops.cache_store ~key (Cone_cert.entry_to_json e) in
    let answer =
      match outcome with
      | Cone_cert.O_equiv proof ->
        store (Cone_cert.E_equiv proof);
        T.Equivalent
      | Cone_cert.O_diff small -> (
        match vet t dc nd r compl (T.Counterexample (expand small)) with
        | T.Counterexample _ as a ->
          store (Cone_cert.E_diff small);
          a
        | a -> a)
      | Cone_cert.O_undet -> T.Undetermined
      | Cone_cert.O_uncert why -> T.Uncertified why
    in
    (answer, false)
  in
  let reject () =
    dc.counts.cache_rejected <- dc.counts.cache_rejected + 1;
    solve ()
  in
  match ops.cache_find ~key with
  | Cache_corrupt -> reject ()
  | Cache_miss ->
    dc.counts.cache_misses <- dc.counts.cache_misses + 1;
    solve ()
  | Cache_hit body -> (
    match Cone_cert.entry_of_json body with
    | Ok (Cone_cert.E_equiv proof) -> (
      if not (t.certify || t.cache_paranoid) then (T.Equivalent, true)
      else
        match Cone_cert.replay pc proof with
        | Ok () -> (T.Equivalent, true)
        | Error why ->
          Obs.Span.trace
            "cache certificate failed replay (%s) — entry rejected" why;
          reject ())
    | Ok (Cone_cert.E_diff small)
      when Array.length small = Array.length pc.Cone_cert.pc_leaves ->
      let ce = expand small in
      if ce_distinguishes dc t.net ce nd r compl then
        (T.Counterexample ce, true)
      else reject ()
    | Ok (Cone_cert.E_diff _) | Error _ -> reject ())

(* One query under the pool's strategy: the answer, whether the cache
   served it, and the part of the conflict schedule still unused — the
   cache strategy's throwaway solver runs the whole schedule itself. *)
let ask t dc nd c limits =
  match (t.cache, limits) with
  | None, [] -> (query t dc nd c.c_rep c.c_compl, false, [])
  | None, limit :: later ->
    (query t dc ~conflict_limit:limit nd c.c_rep c.c_compl, false, later)
  | Some ops, _ ->
    let answer, served =
      query_cached t dc ops ~conflict_limits:limits nd c.c_rep c.c_compl
    in
    (answer, served, [])

(* One answer becomes counters here and nowhere else, in the answering
   member's own counters. *)
let tally t dc nd ~served answer =
  let s = dc.counts in
  match answer with
  | T.Equivalent | T.Counterexample _ when served ->
    s.cache_hits <- s.cache_hits + 1
  | T.Equivalent ->
    s.sat_unsat <- s.sat_unsat + 1;
    if t.certify then s.certified_unsat <- s.certified_unsat + 1
  | T.Counterexample _ ->
    s.sat_sat <- s.sat_sat + 1;
    if t.certify then s.certified_models <- s.certified_models + 1
  | T.Undetermined -> s.sat_undet <- s.sat_undet + 1
  | T.Uncertified why ->
    s.certificate_rejected <- s.certificate_rejected + 1;
    Obs.Span.trace
      "certificate rejected (%s) — node %d keeps its structural translation"
      why nd

(* Walk one task's candidate list on one domain: window checks were
   resolved at collect time, map writes wait for the merge phase. A
   candidate whose conflict schedule runs dry goes to [hard] — a
   cube-and-conquer target, its result [Exhausted] until then. *)
let solve_task t dc task res ~hard =
  let nd = task.t_node in
  let rec walk = function
    | [] -> ()
    | c :: rest ->
      if Obs.Budget.check t.budget <> None then res.r_outcome <- Stopped
      else if c.c_window_eq then
        res.r_outcome <- Merged (L.of_node c.c_rep c.c_compl, true)
      else if
        (* A counterexample already collected in this walk refutes this
           candidate too — skip it without a query. Pure filter, like
           the engine's stale-signature skip; an equivalent pair can
           never be skipped (no counterexample distinguishes it), so
           merges are unaffected. *)
        List.exists
          (fun ce -> ce_distinguishes dc t.net ce nd c.c_rep c.c_compl)
          res.r_ces
      then walk rest
      else begin
        let rec attempt limits =
          let answer, served, later = ask t dc nd c limits in
          tally t dc nd ~served answer;
          match answer with
          | T.Equivalent ->
            res.r_outcome <- Merged (L.of_node c.c_rep c.c_compl, false)
          | T.Uncertified _ ->
            (* Degrade, never trust: the node keeps its structural
               translation. *)
            ()
          | T.Counterexample ce ->
            res.r_ces <- ce :: res.r_ces;
            walk rest
          | T.Undetermined -> (
            match later with
            | _ when Obs.Budget.check_now t.budget <> None ->
              res.r_outcome <- Stopped
            | [] -> hard c
            | _ :: _ ->
              dc.counts.sat_retries <- dc.counts.sat_retries + 1;
              attempt later)
        in
        attempt t.conflict_limits
      end
  in
  walk task.t_cands

(* Cube width: enough cubes to keep the pool busy (>= 2 per domain),
   capped at 4 variables (16 cubes) and by the cone's PI count. *)
let cube_vars ~domains ~available =
  if available = 0 then 0
  else begin
    let rec bits k = if 1 lsl k >= 2 * domains then k else bits (k + 1) in
    min (min 4 available) (bits 1)
  end

(* Re-attack the wave's hard pairs ([(slot, candidate)], task order)
   cube-and-conquer style: enumerate all 2^k assignments of k cone PIs
   as assumption cubes and solve them across the pool on the members'
   incremental solvers under the schedule's last conflict limit (the
   cube joins the query assumptions, so certified UNSATs replay under
   their own cube). A pair merges only if every cube of its complete
   enumeration is UNSAT; any SAT cube is an ordinary, validated
   counterexample. Cube verdicts are never stored. A pair with no cone
   PI stays [Exhausted]; once the budget is gone every one is
   [Stopped]. *)
let cube_phase t tasks results hard =
  if Obs.Budget.check t.budget <> None then
    List.iter (fun (j, _) -> results.(j).r_outcome <- Stopped) hard
  else begin
    let splits =
      List.filter_map
        (fun (j, c) ->
          let pis = Aig.Cone.leaves t.net [ tasks.(j).t_node; c.c_rep ] in
          match
            cube_vars ~domains:(Array.length t.ctxs)
              ~available:(List.length pis)
          with
          | 0 -> None
          | k ->
            let pis = List.filteri (fun i _ -> i < k) pis in
            Some
              ( j,
                c,
                List.init (1 lsl k) (fun m ->
                    List.mapi (fun b pi -> (pi, (m lsr b) land 1 = 1)) pis) ))
        hard
    in
    let queries =
      Array.of_list
        (List.concat_map
           (fun (j, c, cubes) -> List.map (fun cube -> (j, c, cube)) cubes)
           splits)
    in
    let n = Array.length queries in
    if n > 0 then begin
      t.stats.cube_splits <- t.stats.cube_splits + List.length splits;
      t.stats.cube_queries <- t.stats.cube_queries + n;
      let conflict_limit =
        match List.rev t.conflict_limits with l :: _ -> Some l | [] -> None
      in
      let answers = Array.make n T.Undetermined in
      Sutil.Par.Pool.drain t.pool n (fun ~domain i ->
          let dc = t.ctxs.(domain) and j, c, cube = queries.(i) in
          let nd = tasks.(j).t_node in
          if Obs.Budget.check t.budget = None then begin
            let assume =
              List.map
                (fun (pi, v) ->
                  Sat.Solver.lit_of (T.var_of_node dc.env pi) (not v))
                cube
            in
            answers.(i) <-
              query t dc ~assume ?conflict_limit nd c.c_rep c.c_compl
          end;
          tally t dc nd ~served:false answers.(i));
      (* Counterexamples enter in cube order; any cube that is not UNSAT
         leaves its pair unmerged. *)
      List.iter
        (fun (j, c, _) ->
          results.(j).r_outcome <- Merged (L.of_node c.c_rep c.c_compl, false))
        splits;
      Array.iteri
        (fun i (j, _, _) ->
          let res = results.(j) in
          match answers.(i) with
          | T.Equivalent -> ()
          | T.Counterexample ce ->
            res.r_ces <- ce :: res.r_ces;
            res.r_outcome <- Exhausted
          | T.Undetermined | T.Uncertified _ -> res.r_outcome <- Exhausted)
        queries
    end
  end

let run_wave t tasks =
  let results =
    Array.map (fun _ -> { r_outcome = Exhausted; r_ces = [] }) tasks
  in
  let hard = Array.make (Array.length tasks) None in
  Sutil.Par.Pool.drain t.pool (Array.length tasks) (fun ~domain i ->
      solve_task t t.ctxs.(domain) tasks.(i) results.(i) ~hard:(fun c ->
          hard.(i) <- Some c));
  let hard =
    Array.to_seqi hard
    |> Seq.filter_map (fun (j, c) -> Option.map (fun c -> (j, c)) c)
    |> List.of_seq
  in
  if hard <> [] then cube_phase t tasks results hard;
  join t;
  results

(* Parallel SAT dispatch: a pool of solver domains for the sweep
   engine's candidate queries, each answered by one of two per-query
   strategies.

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
   walk does the counting, the retries, the counterexample validation
   and the per-task counterexample filter. The engine runs in waves: it
   collects a batch of tasks (one per fresh node, each a pre-filtered
   candidate list), freezes the network, and calls {!run_wave}; the
   members drain the task queue. The engine — the single writer — then
   applies the results in task order.

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

type counts = {
  mutable n_unsat : int;
  mutable n_sat : int;
  mutable n_undet : int;
  mutable n_retries : int;
  mutable n_cert_unsat : int;
  mutable n_cert_models : int;
  mutable n_cert_rejected : int;
  mutable n_cache_hits : int;
  mutable n_cache_misses : int;
  mutable n_cache_rejected : int;
}

type outcome =
  | Merged of L.t * bool  (* proven target; [true] = window-equal, no SAT *)
  | Exhausted  (* candidate list exhausted (or certificate rejected) *)
  | Hard of cand  (* retry schedule exhausted on this candidate *)
  | Stopped  (* shared budget exhausted mid-walk *)

type result = {
  mutable r_outcome : outcome;
  mutable r_ces : bool array list;
      (* validated counterexamples, in reverse attempt order *)
  r_counts : counts;
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
  mutable cone_stats : Sat.Solver.stats;
      (* the cache strategy's throwaway solvers, summed *)
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
  certify : bool;
  conflict_limit : int option;
  retry_schedule : int list;
  cache : cache_ops option;
  cache_paranoid : bool;
}

let add_stats (a : Sat.Solver.stats) (b : Sat.Solver.stats) =
  {
    Sat.Solver.decisions = a.decisions + b.decisions;
    conflicts = a.conflicts + b.conflicts;
    propagations = a.propagations + b.propagations;
    learned = a.learned + b.learned;
    solve_calls = a.solve_calls + b.solve_calls;
    reductions = a.reductions + b.reductions;
    gcs = a.gcs + b.gcs;
  }

let no_stats =
  {
    Sat.Solver.decisions = 0;
    conflicts = 0;
    propagations = 0;
    learned = 0;
    solve_calls = 0;
    reductions = 0;
    gcs = 0;
  }

let create ~domains ~certify ~conflict_limit ~retry_schedule ~cache
    ~cache_paranoid net budget =
  let domains = max 1 domains in
  let ctxs =
    Array.init domains (fun _ ->
        let solver = Sat.Solver.create () in
        (* Thousands of small queries share this solver: size its
           learnt-DB ceiling to the largest per-query conflict budget
           (the last retry rung) rather than a whole-run default, so
           LBD reduction keeps the database proportional to a query. *)
        (match conflict_limit with
        | Some base ->
          let top = List.fold_left max base retry_schedule in
          Sat.Solver.set_max_learnts solver (max 2000 (4 * top))
        | None -> ());
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
          cone_stats = no_stats;
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
    certify;
    conflict_limit;
    retry_schedule;
    cache;
    cache_paranoid;
  }

let domains t = Array.length t.ctxs

let shutdown t = Sutil.Par.Pool.shutdown t.pool

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
let query t dc ?assume ~conflict_limit nd r compl =
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
let query_cached t dc ops counts ~conflict_limits nd r compl =
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
    dc.cone_stats <- add_stats dc.cone_stats s;
    (* Each retried call was an undetermined outcome, as in the
       incremental strategy's schedule. *)
    counts.n_undet <- counts.n_undet + cs.Cone_cert.s_retries;
    counts.n_retries <- counts.n_retries + cs.Cone_cert.s_retries;
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
    counts.n_cache_rejected <- counts.n_cache_rejected + 1;
    solve ()
  in
  match ops.cache_find ~key with
  | Cache_corrupt -> reject ()
  | Cache_miss ->
    counts.n_cache_misses <- counts.n_cache_misses + 1;
    solve ()
  | Cache_hit body -> (
    match Cone_cert.entry_of_json body with
    | Ok (Cone_cert.E_equiv proof) -> (
      if not (t.certify || t.cache_paranoid) then (T.Equivalent, true)
      else
        match Cone_cert.replay pc proof with
        | Ok () -> (T.Equivalent, true)
        | Error why ->
          Obs.Trace.emitf
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
let ask t dc counts nd c limit schedule =
  match t.cache with
  | None ->
    (query t dc ~conflict_limit:limit nd c.c_rep c.c_compl, false, schedule)
  | Some ops ->
    let conflict_limits =
      match limit with None -> [] | Some l -> l :: schedule
    in
    let answer, served =
      query_cached t dc ops counts ~conflict_limits nd c.c_rep c.c_compl
    in
    (answer, served, [])

(* One answer becomes counters here and nowhere else. *)
let tally t counts ~served = function
  | T.Equivalent | T.Counterexample _ when served ->
    counts.n_cache_hits <- counts.n_cache_hits + 1
  | T.Equivalent ->
    counts.n_unsat <- counts.n_unsat + 1;
    if t.certify then counts.n_cert_unsat <- counts.n_cert_unsat + 1
  | T.Counterexample _ ->
    counts.n_sat <- counts.n_sat + 1;
    if t.certify then counts.n_cert_models <- counts.n_cert_models + 1
  | T.Undetermined -> counts.n_undet <- counts.n_undet + 1
  | T.Uncertified _ -> counts.n_cert_rejected <- counts.n_cert_rejected + 1

(* Walk one task's candidate list on one domain: window checks were
   resolved at collect time, stats and map writes wait for the merge
   phase. *)
let solve_task t dc task res =
  let counts = res.r_counts in
  let rec walk = function
    | [] -> res.r_outcome <- Exhausted
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
          (fun ce -> ce_distinguishes dc t.net ce task.t_node c.c_rep c.c_compl)
          res.r_ces
      then walk rest
      else begin
        let rec attempt limit schedule =
          let answer, served, schedule =
            ask t dc counts task.t_node c limit schedule
          in
          tally t counts ~served answer;
          match answer with
          | T.Equivalent ->
            res.r_outcome <- Merged (L.of_node c.c_rep c.c_compl, false)
          | T.Uncertified _ ->
            (* Degrade, never trust: the node keeps its structural
               translation. *)
            res.r_outcome <- Exhausted
          | T.Counterexample ce ->
            res.r_ces <- ce :: res.r_ces;
            walk rest
          | T.Undetermined -> (
            match schedule with
            | next :: later when Obs.Budget.check_now t.budget = None ->
              counts.n_retries <- counts.n_retries + 1;
              attempt (Some next) later
            | _ :: _ -> res.r_outcome <- Stopped
            | [] ->
              if Obs.Budget.check_now t.budget <> None then
                res.r_outcome <- Stopped
              else res.r_outcome <- Hard c)
        in
        attempt t.conflict_limit t.retry_schedule
      end
  in
  walk task.t_cands

let run_wave t tasks =
  let results =
    Array.map
      (fun _ ->
        {
          r_outcome = Exhausted;
          r_ces = [];
          r_counts =
            {
              n_unsat = 0;
              n_sat = 0;
              n_undet = 0;
              n_retries = 0;
              n_cert_unsat = 0;
              n_cert_models = 0;
              n_cert_rejected = 0;
              n_cache_hits = 0;
              n_cache_misses = 0;
              n_cache_rejected = 0;
            };
        })
      tasks
  in
  Sutil.Par.Pool.drain t.pool (Array.length tasks) (fun ~domain i ->
      solve_task t t.ctxs.(domain) tasks.(i) results.(i));
  results

(* ---- cube-and-conquer ---- *)

type cube_query = {
  q_node : int;
  q_rep : int;
  q_compl : bool;
  q_cube : (int * bool) list;  (* PI node -> forced value *)
}

let run_cubes t ~conflict_limit queries =
  let answers = Array.make (Array.length queries) T.Undetermined in
  Sutil.Par.Pool.drain t.pool (Array.length queries) (fun ~domain i ->
      if Obs.Budget.check t.budget = None then begin
        let dc = t.ctxs.(domain) in
        let q = queries.(i) in
        let assume =
          List.map
            (fun (pi, v) ->
              Sat.Solver.lit_of (T.var_of_node dc.env pi) (not v))
            q.q_cube
        in
        answers.(i) <-
          query t dc ~assume ~conflict_limit q.q_node q.q_rep q.q_compl
      end);
  answers

let solver_stats t =
  Array.fold_left
    (fun acc dc ->
      add_stats (add_stats acc (Sat.Solver.stats dc.solver)) dc.cone_stats)
    no_stats t.ctxs

(* Parallel SAT dispatch: a pool of solver domains for the sweep
   engine's candidate queries.

   Each pool member owns one incremental [Sat.Solver] with its own
   [Sat.Tseitin] environment over the shared fresh network (and, in
   certified mode, its own [Sat.Drup] checker attached before the first
   clause). The engine runs in waves: it collects a batch of tasks (one
   per fresh node, each a pre-filtered candidate list), freezes the
   network, and calls {!run_wave}; the members drain the task queue,
   loading each task's cone CNF on demand into their own solver. The
   engine — the single writer — then applies the results in task order.

   The network is never mutated while workers run, so workers only ever
   read it; all worker-written state is confined to each task's own
   result slot. The shared [Obs.Budget] is the one cross-domain
   communication channel: its sticky atomic exhaustion lets any worker
   trip degradation for everyone. *)

module A = Aig.Network
module L = Aig.Lit

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
  mutable n_undet : int;
  mutable n_retries : int;
  mutable n_cert_unsat : int;
  mutable n_cert_rejected : int;
}

type outcome =
  | Merged of L.t * bool  (* proven target; [true] = window-equal, no SAT *)
  | Exhausted  (* candidate list exhausted (or certificate rejected) *)
  | Hard of cand  (* retry schedule exhausted on this candidate *)
  | Stopped  (* shared budget exhausted mid-walk *)

type result = {
  mutable r_outcome : outcome;
  mutable r_ces : (bool array * int * bool) list;
      (* counterexamples in reverse attempt order: (pattern, rep, compl) *)
  r_counts : counts;
}

(* Scratch for single-pattern cone evaluation ({!ce_distinguishes}) —
   epoch-stamped memo so repeated cone walks under different
   assignments reuse the arrays without clearing them. *)
type scratch = {
  mutable eval_val : int array;
  mutable eval_stamp : int array;
  mutable eval_epoch : int;
}

let scratch () = { eval_val = [||]; eval_stamp = [||]; eval_epoch = 0 }

type domain_ctx = {
  solver : Sat.Solver.t;
  env : Sat.Tseitin.env;
  cert : Sat.Drup.t option;
  (* Cumulative-counter snapshots at the last budget charge: each query
     charges only its delta, so the shared budget's conflict and
     propagation caps hold across the whole pool. *)
  mutable charged_conflicts : int;
  mutable charged_propagations : int;
  eval : scratch;  (* this domain's CE-filter scratch *)
}

type t = {
  pool : Sutil.Par.Pool.t;
  net : A.t;
  ctxs : domain_ctx array;
  budget : Obs.Budget.t;
  conflict_limit : int option;
  retry_schedule : int list;
}

let create ~domains ~certify ~conflict_limit ~retry_schedule net budget =
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
          env = Sat.Tseitin.create net solver;
          cert;
          charged_conflicts = 0;
          charged_propagations = 0;
          eval = scratch ();
        })
  in
  {
    pool = Sutil.Par.Pool.create ~domains;
    net;
    ctxs;
    budget;
    conflict_limit;
    retry_schedule;
  }

let domains t = Array.length t.ctxs

let shutdown t = Sutil.Par.Pool.shutdown t.pool

(* Charge this domain's solver work since its last charge to the shared
   budget. Any domain's charge can trip the sticky conflict/propagation
   caps; the existing [Obs.Budget.check] calls in every walk then stop
   the whole pool. *)
let charge_budget t dc =
  let s = Sat.Solver.stats dc.solver in
  let conflicts = s.Sat.Solver.conflicts - dc.charged_conflicts in
  let propagations = s.Sat.Solver.propagations - dc.charged_propagations in
  dc.charged_conflicts <- s.Sat.Solver.conflicts;
  dc.charged_propagations <- s.Sat.Solver.propagations;
  ignore (Obs.Budget.charge ~conflicts ~propagations t.budget)

(* Evaluate both cones under a counterexample and report whether it
   tells [nd] and [r]-with-[compl] apart. This is the worker-local
   stand-in for the engine's mid-walk signature refinement: the
   signatures are frozen for the whole wave, so without it every node
   of a fat stale class would SAT-query every stale candidate and
   collect a counterexample per query — a quadratic blowup. One cone
   walk per counterexample keeps the walk linear instead. *)
let ce_distinguishes sc net ce nd r compl =
  let n = A.num_nodes net in
  if Array.length sc.eval_stamp < n then begin
    let cap = max n (2 * Array.length sc.eval_stamp) in
    sc.eval_val <- Array.make cap 0;
    sc.eval_stamp <- Array.make cap 0;
    sc.eval_epoch <- 0
  end;
  sc.eval_epoch <- sc.eval_epoch + 1;
  let epoch = sc.eval_epoch in
  let rec eval_node nd =
    if sc.eval_stamp.(nd) = epoch then sc.eval_val.(nd)
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
      sc.eval_stamp.(nd) <- epoch;
      sc.eval_val.(nd) <- v;
      v
    end
  in
  let a = eval_node nd in
  let b =
    let v = eval_node r in
    if compl then 1 - v else v
  in
  a <> b

(* Walk one task's candidate list on one domain: window checks were
   resolved at collect time, stats and map writes wait for the merge
   phase. *)
let solve_task t dc task res =
  let deadline = Obs.Budget.deadline t.budget in
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
          (fun (ce, _, _) ->
            ce_distinguishes dc.eval t.net ce task.t_node c.c_rep c.c_compl)
          res.r_ces
      then walk rest
      else begin
        let rec sat_attempt limit schedule =
          let answer =
            Sat.Tseitin.check_equiv ?conflict_limit:limit ?deadline
              ?certify:dc.cert dc.env
              (L.of_node task.t_node false)
              (L.of_node c.c_rep c.c_compl)
          in
          charge_budget t dc;
          match answer with
          | Sat.Tseitin.Equivalent ->
            res.r_counts.n_unsat <- res.r_counts.n_unsat + 1;
            if dc.cert <> None then
              res.r_counts.n_cert_unsat <- res.r_counts.n_cert_unsat + 1;
            res.r_outcome <- Merged (L.of_node c.c_rep c.c_compl, false)
          | Sat.Tseitin.Uncertified _ ->
            (* Degrade, never trust: the node keeps its structural
               translation. *)
            res.r_counts.n_cert_rejected <- res.r_counts.n_cert_rejected + 1;
            res.r_outcome <- Exhausted
          | Sat.Tseitin.Counterexample ce ->
            res.r_ces <- (ce, c.c_rep, c.c_compl) :: res.r_ces;
            walk rest
          | Sat.Tseitin.Undetermined -> (
            res.r_counts.n_undet <- res.r_counts.n_undet + 1;
            match schedule with
            | next :: later when Obs.Budget.check_now t.budget = None ->
              res.r_counts.n_retries <- res.r_counts.n_retries + 1;
              sat_attempt (Some next) later
            | _ :: _ -> res.r_outcome <- Stopped
            | [] ->
              if Obs.Budget.check_now t.budget <> None then
                res.r_outcome <- Stopped
              else res.r_outcome <- Hard c)
        in
        sat_attempt t.conflict_limit t.retry_schedule
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
              n_undet = 0;
              n_retries = 0;
              n_cert_unsat = 0;
              n_cert_rejected = 0;
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

type cube_answer = C_unsat | C_ce of bool array | C_undet | C_uncert

let run_cubes t ~conflict_limit queries =
  let answers = Array.make (Array.length queries) C_undet in
  let deadline = Obs.Budget.deadline t.budget in
  Sutil.Par.Pool.drain t.pool (Array.length queries) (fun ~domain i ->
      if Obs.Budget.check t.budget = None then begin
        let dc = t.ctxs.(domain) in
        let q = queries.(i) in
        let assume =
          List.map
            (fun (pi, v) ->
              Sat.Solver.lit_of (Sat.Tseitin.var_of_node dc.env pi) (not v))
            q.q_cube
        in
        let answer =
          Sat.Tseitin.check_equiv ?conflict_limit ?deadline ?certify:dc.cert
            ~assume dc.env
            (L.of_node q.q_node false)
            (L.of_node q.q_rep q.q_compl)
        in
        charge_budget t dc;
        answers.(i) <-
          (match answer with
          | Sat.Tseitin.Equivalent -> C_unsat
          | Sat.Tseitin.Counterexample ce -> C_ce ce
          | Sat.Tseitin.Undetermined -> C_undet
          | Sat.Tseitin.Uncertified _ -> C_uncert)
      end);
  answers

let solver_stats t =
  Array.fold_left
    (fun (acc : Sat.Solver.stats) dc ->
      let s = Sat.Solver.stats dc.solver in
      {
        Sat.Solver.decisions = acc.Sat.Solver.decisions + s.Sat.Solver.decisions;
        conflicts = acc.Sat.Solver.conflicts + s.Sat.Solver.conflicts;
        propagations =
          acc.Sat.Solver.propagations + s.Sat.Solver.propagations;
        learned = acc.Sat.Solver.learned + s.Sat.Solver.learned;
        solve_calls = acc.Sat.Solver.solve_calls + s.Sat.Solver.solve_calls;
        reductions = acc.Sat.Solver.reductions + s.Sat.Solver.reductions;
        gcs = acc.Sat.Solver.gcs + s.Sat.Solver.gcs;
      })
    {
      Sat.Solver.decisions = 0;
      conflicts = 0;
      propagations = 0;
      learned = 0;
      solve_calls = 0;
      reductions = 0;
      gcs = 0;
    }
    t.ctxs

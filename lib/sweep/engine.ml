module A = Aig.Network
module L = Aig.Lit
module Sg = Sim.Signature
module P = Sim.Patterns
module Rng = Sutil.Rng

exception Verification_failed of string

(* Fault-injection sites (see DESIGN.md). Both only force the
   pessimistic branch: dropping a counter-example loses refinement
   information, failing a window falls back to SAT — neither can let an
   unproven merge through. *)
let fault_drop_ce = Obs.Fault.register "sweep.drop_ce"
let fault_fail_window = Obs.Fault.register "sweep.fail_window"

(* The cross-run cache is a service-layer concern (disk layout, fault
   sites, quarantine live in [Svc.Cache], which sits above this
   library), so the engine sees it only through this record — the
   classic dependency inversion. The solver pool's cache strategy
   ({!Dispatch}) trusts nothing read from a hit until it re-validates
   it, so a malicious store can cost time, never soundness. *)
type cache_found = Dispatch.cache_found =
  | Cache_hit of Obs.Json.t
  | Cache_miss
  | Cache_corrupt

type cache_ops = Dispatch.cache_ops = {
  cache_find : key:string -> cache_found;
  cache_store : key:string -> Obs.Json.t -> unit;
}

type config = {
  seed : int64;
  initial_words : int;
  conflict_limit : int option;
  retry_schedule : int list;
  resim_batch : int;
  max_compares : int;
  guided_init : bool;
  guided_queries : int;
  window_refine : bool;
  window_max_leaves : int;
  sim_domains : int;
  par_threshold : int;
  sat_domains : int;
  budget : Obs.Budget.t option;
  (* The budget the sweep runs under ([None] = unlimited): a caller's
     own, a pipeline's, or an Obs.Pool lease's. Shared and sticky: SAT
     work is charged to it, so conflict and propagation caps hold across
     passes and pool accounting sees the sweep's real consumption. *)
  verify : bool;
  certify : bool;
  cache : cache_ops option;
  cache_paranoid : bool;
}

let fraig_config =
  {
    seed = 0xF4A16L;
    initial_words = 8;
    conflict_limit = None;
    retry_schedule = [];
    resim_batch = 32;
    max_compares = 1000;
    guided_init = false;
    guided_queries = 0;
    window_refine = false;
    window_max_leaves = 16;
    sim_domains = 1;
    par_threshold = 2048;
    sat_domains = 1;
    budget = None;
    verify = false;
    certify = false;
    cache = None;
    cache_paranoid = false;
  }

let stp_config =
  {
    fraig_config with
    seed = 0x57EB5L;
    guided_init = true;
    guided_queries = 192;
    window_refine = true;
    window_max_leaves = 16;
  }

type state = {
  cfg : config;
  stats : Stats.t;
  fresh : A.t;
  rng : Rng.t;
  pats : P.t;
  plan : Sim.Kernel.t;
  (* the fresh network compiled into the kernel instruction arena,
     extended in place as nodes are added — signature maintenance is
     plan patching: run the appended instruction suffix for new nodes,
     re-run the whole plan over only the stale trailing words after a
     counter-example batch *)
  mutable sigs : int array array; (* fresh-node id -> signature *)
  mutable sig_count : int; (* fresh nodes with a computed signature *)
  mutable sim_np : int;
  (* patterns covered by current signatures — lags behind
     [P.num_patterns pats] while counter-examples await a batch resim *)
  mutable supports : int list option array;
  (* fresh-node id -> PI nodes in its TFI (sorted), or None once the
     support exceeds the window leaf budget. The network is append-only,
     so these never change — computed once per node bottom-up, they make
     window-eligibility of a candidate pair an O(leaves) check instead
     of a cone traversal. *)
  mutable window_tts : Tt.Truth_table.t option array;
  (* fresh-node id -> exhaustive window signature over the node's own
     support, for nodes whose support fits the leaf budget. This is the
     paper's STP exhaustive simulation: each table is the composition of
     the fanin logic matrices, built once bottom-up. A candidate pair
     compares by lifting both tables onto the joint support. *)
  classes : Equiv_classes.t;
  mutable pending_ce : int;
  budget : Obs.Budget.t;
}

(* First exhaustion wins: record the reason and the phase where it was
   noticed, then stay degraded — [Obs.Budget] is sticky, so every later
   [budget_ok] call is a cheap [false]. *)
let note_exhausted st reason phase =
  if st.stats.Stats.budget_exhausted = None then begin
    let reason = Obs.Budget.reason_to_string reason in
    st.stats.Stats.budget_exhausted <- Some { Stats.reason; phase };
    Obs.Trace.emitf "budget exhausted (%s) during %s — degrading to \
                     structural translation" reason phase
  end

let budget_ok st phase =
  match Obs.Budget.check st.budget with
  | None -> true
  | Some reason ->
    note_exhausted st reason phase;
    false

(* Phase accounting. Wall clock ([Obs.Clock]), never [Sys.time]: CPU
   time sums across domains, so it would bill a parallel resimulation at
   ~N x its real duration. Each instrumented stretch goes to exactly one
   phase, so the phases sum to <= total_time. *)
let timed st phase f =
  let t0 = Obs.Clock.now () in
  let r = f () in
  let dt = Obs.Clock.now () -. t0 in
  (match phase with
  | `Sim -> st.stats.Stats.sim_time <- st.stats.Stats.sim_time +. dt
  | `Plan_compile ->
    st.stats.Stats.plan_compile_time <- st.stats.Stats.plan_compile_time +. dt
  | `Resim -> st.stats.Stats.resim_time <- st.stats.Stats.resim_time +. dt
  | `Window -> st.stats.Stats.window_time <- st.stats.Stats.window_time +. dt
  | `Sat -> st.stats.Stats.sat_time <- st.stats.Stats.sat_time +. dt);
  r

let ensure_sig_capacity st n =
  if n >= Array.length st.sigs then begin
    let cap = max (2 * Array.length st.sigs) (n + 1) in
    let bigger = Array.make cap [||] in
    Array.blit st.sigs 0 bigger 0 (Array.length st.sigs);
    st.sigs <- bigger;
    let bigger_sup = Array.make cap None in
    Array.blit st.supports 0 bigger_sup 0 (Array.length st.supports);
    st.supports <- bigger_sup;
    let bigger_tt = Array.make cap None in
    Array.blit st.window_tts 0 bigger_tt 0 (Array.length st.window_tts);
    st.window_tts <- bigger_tt
  end

(* Merge two sorted leaf lists; None once the size exceeds [cap]. The
   remaining lengths are threaded through the loop so the early-exit
   check never rescans a tail with [List.length]. *)
let merge_support cap a b =
  let rec go n xs lx ys ly =
    if n > cap then None
    else
      match (xs, ys) with
      | [], rest -> if n + ly > cap then None else Some rest
      | rest, [] -> if n + lx > cap then None else Some rest
      | x :: xs', y :: ys' ->
        if x = y then
          match go (n + 1) xs' (lx - 1) ys' (ly - 1) with
          | Some r -> Some (x :: r)
          | None -> None
        else if x < y then
          match go (n + 1) xs' (lx - 1) ys ly with
          | Some r -> Some (x :: r)
          | None -> None
        else
          match go (n + 1) xs lx ys' (ly - 1) with
          | Some r -> Some (y :: r)
          | None -> None
  in
  go 0 a (List.length a) b (List.length b)

let node_support st nd =
  match A.kind st.fresh nd with
  | A.Const -> Some []
  | A.Pi _ -> Some [ nd ]
  | A.And -> (
    let s0 = st.supports.(L.node (A.fanin0 st.fresh nd)) in
    let s1 = st.supports.(L.node (A.fanin1 st.fresh nd)) in
    match (s0, s1) with
    | Some a, Some b -> merge_support st.cfg.window_max_leaves a b
    | _ -> None)

(* Lift a node's window table onto a (sorted) joint support. *)
let lift_tt tt own_support joint =
  let module T = Tt.Truth_table in
  let arity = List.length joint in
  let joint_arr = Array.of_list joint in
  let positions =
    Array.of_list
      (List.map
         (fun leaf ->
           let rec find i =
             if i >= Array.length joint_arr then
               invalid_arg
                 (Printf.sprintf
                    "Sweep.Engine.lift_tt: leaf %d missing from joint support"
                    leaf)
             else if joint_arr.(i) = leaf then i
             else find (i + 1)
           in
           find 0)
         own_support)
  in
  T.remap tt ~positions ~arity

(* The node's exhaustive window signature: composition of the fanin
   logic matrices over its own support, computed on first demand and
   memoized. Only called for nodes whose support fits the budget; the
   fanins of such a node are then eligible too (their supports are
   subsets), so the recursion is total. Depth is bounded by the logic
   depth of the network. *)
let rec window_tt st nd =
  let module T = Tt.Truth_table in
  match st.window_tts.(nd) with
  | Some tt -> tt
  | None ->
    let sup = match st.supports.(nd) with Some s -> s | None -> assert false in
    let tt =
      match A.kind st.fresh nd with
      | A.Const -> T.const0 0
      | A.Pi _ -> T.nth_var 1 0
      | A.And ->
        let side f =
          let child = L.node f in
          let csup =
            match st.supports.(child) with Some s -> s | None -> assert false
          in
          let lifted = lift_tt (window_tt st child) csup sup in
          if L.is_compl f then T.not_ lifted else lifted
        in
        T.and_ (side (A.fanin0 st.fresh nd)) (side (A.fanin1 st.fresh nd))
    in
    st.window_tts.(nd) <- Some tt;
    tt

(* Parallel simulation pays off only when there are enough pattern words
   to shard; below the configured threshold the sequential path wins. *)
let sim_domains st =
  if st.cfg.sim_domains > 1 && P.num_patterns st.pats >= st.cfg.par_threshold
  then st.cfg.sim_domains
  else 1

(* Register every fresh node created since the last registration: extend
   the kernel plan with instructions for the new nodes, then execute
   only that instruction suffix over the pattern prefix the current
   signatures cover ([sim_np] — it lags the pattern set while
   counter-examples await a batch resim). The execution is the engine's
   "initial simulation" work (sim_time); the compile part is accounted
   separately so plan cost stays visible. *)
let register_new_nodes st =
  let n = A.num_nodes st.fresh in
  if n > st.sig_count then begin
    timed st `Plan_compile (fun () -> Sim.Kernel.extend_aig st.plan st.fresh);
    timed st `Sim (fun () ->
        ensure_sig_capacity st (n - 1);
        let nw = max 1 ((st.sim_np + 31) / 32) in
        for nd = st.sig_count to n - 1 do
          st.sigs.(nd) <- Array.make nw 0
        done;
        (* Bulk registrations (the initial pass over the PIs, or any
           large append) are worth sharding across domains; steady-state
           single-node appends run the suffix sequentially. Sharding
           splits the word range per plan execution, so the rows are
           bit-identical either way. *)
        let domains = if n - st.sig_count > 64 then sim_domains st else 1 in
        Sim.Kernel.run_sharded ~domains st.plan st.pats st.sigs
          ~inst_lo:st.sig_count ~inst_hi:n ~lo:0 ~hi:nw;
        for nd = st.sig_count to n - 1 do
          Sg.num_patterns_mask st.sim_np st.sigs.(nd);
          st.supports.(nd) <- node_support st nd;
          Equiv_classes.add st.classes nd st.sigs.(nd)
        done;
        st.sig_count <- n)
  end

(* Resimulation after a batch of counter-examples, as a plan patch: the
   pattern set is append-only, so every signature word before the one
   containing the first new pattern is already final — re-execute the
   whole plan over only the stale trailing words, then rebuild the
   candidate classes. *)
let resimulate st =
  st.stats.Stats.resimulations <- st.stats.Stats.resimulations + 1;
  Obs.Trace.emitf "resim #%d: %d nodes, %d patterns"
    st.stats.Stats.resimulations (A.num_nodes st.fresh)
    (P.num_patterns st.pats);
  (* Any nodes added since the last registration first get rows over the
     covered prefix (no-op in the steady state). *)
  register_new_nodes st;
  let n = A.num_nodes st.fresh in
  timed st `Resim (fun () ->
      let np = P.num_patterns st.pats in
      let nw = max 1 ((np + 31) / 32) in
      let from_w = if st.sim_np = 0 then 0 else st.sim_np lsr 5 in
      for nd = 0 to n - 1 do
        let old = st.sigs.(nd) in
        if Array.length old <> nw then begin
          let fresh = Array.make nw 0 in
          Array.blit old 0 fresh 0 (min nw (Array.length old));
          st.sigs.(nd) <- fresh
        end
      done;
      Sim.Kernel.run_sharded ~domains:(sim_domains st) st.plan st.pats st.sigs
        ~inst_lo:0 ~inst_hi:n ~lo:from_w ~hi:nw;
      for nd = 0 to n - 1 do
        Sg.num_patterns_mask np st.sigs.(nd)
      done);
  st.sim_np <- P.num_patterns st.pats;
  Equiv_classes.clear st.classes ~num_patterns:st.sim_np;
  for nd = 0 to n - 1 do
    Equiv_classes.add st.classes nd st.sigs.(nd)
  done;
  st.pending_ce <- 0

let note_counterexample st ce =
  (* Injected fault: lose the counter-example. The classes stay coarser
     than they should be, costing extra SAT calls — but never a wrong
     merge, since merges need proof regardless. *)
  if Obs.Fault.fires fault_drop_ce then ()
  else begin
    st.stats.Stats.ce_patterns <- st.stats.Stats.ce_patterns + 1;
    P.add_pattern_randomized st.pats st.rng (Array.map (fun b -> Some b) ce);
    st.pending_ce <- st.pending_ce + 1;
    if st.pending_ce >= st.cfg.resim_batch then resimulate st
  end

(* Exhaustive-window comparison from the cached tables: lift both onto
   the joint support and compare columns. Exact — equal tables prove
   equivalence, different tables refute it — so no SAT call happens
   either way. *)
let window_verdict st nd r =
  if not st.cfg.window_refine then `Unknown
  else if Obs.Fault.fires fault_fail_window then
    (* Injected fault: refinement unavailable — fall back to the
       solver, which must reach the same verdict. *)
    `Unknown
  else
    match (st.supports.(nd), st.supports.(r)) with
    | Some sa, Some sb -> (
      match merge_support st.cfg.window_max_leaves sa sb with
      | None -> `Unknown
      | Some joint ->
        timed st `Window (fun () ->
            let module T = Tt.Truth_table in
            (* Structural duplicates usually share the support
               exactly; skip the lift then. *)
            let la, lb =
              if List.equal Int.equal sa sb then
                (window_tt st nd, window_tt st r)
              else
                ( lift_tt (window_tt st nd) sa joint,
                  lift_tt (window_tt st r) sb joint )
            in
            if T.equal la lb then `Equal
            else if T.equal la (T.not_ lb) then `Compl
            else `Different))
    | _ -> `Unknown

(* ---- the sweep loop ----

   One input-to-output pass over the old AND nodes, in waves. Collect:
   translate old nodes on the calling domain, resolving structural
   hits and window verdicts on the spot; a node whose walk still needs
   a query becomes a task carrying its pre-filtered candidate list.
   Solve: the network frozen, the solver pool drains the tasks
   ({!Dispatch.run_wave}), each member answering queries with its own
   incremental solver or, with the cache armed, through the cache.
   Cube: tasks whose retry schedule ran dry are split over all
   assignments of a few cone PIs and re-attacked across the pool.
   Merge: the calling domain — the single writer — applies results in
   task order: proven merges into the map, counterexamples into the
   pattern set (batched into shared resimulations), counters into
   stats.

   A wave ends before the first old node with a fanin whose task still
   awaits its verdict. Every node is therefore translated through its
   fanins' final literals, and its walk settles on the lowest-numbered
   earlier node it is provably equal to (classes list members in node
   order and never split an equivalent pair). So while every query gets
   an answer (no conflict limit, no budget cut) and no walk reaches
   [max_compares], the result depends neither on the domain count nor
   on how the counterexamples refined the classes on the way. *)

type collected = C_none | C_merge of L.t | C_task of Dispatch.cand list

(* Walk [nd]'s candidate class on the calling domain. Window-proved
   equalities merge on the spot when nothing precedes them and close
   the task's walk otherwise (nothing beyond them is reachable). Every
   examined representative — window split or deferred query — charges
   [max_compares], so a class dominated by window splits still ends its
   walk. *)
let collect st nd =
  let sig_n = st.sigs.(nd) in
  let reps =
    List.filter (fun r -> r < nd) (Equiv_classes.candidates st.classes sig_n)
  in
  let finish acc = match acc with [] -> C_none | l -> C_task (List.rev l) in
  let rec walk tried acc = function
    | [] -> finish acc
    | _ when tried >= st.cfg.max_compares -> finish acc
    | _ when not (budget_ok st "sat") ->
      (* Mid-node exhaustion: the node keeps its structural
         translation — never a partial merge. *)
      C_none
    | r :: rest -> (
      let compl = not (Sg.equal sig_n st.sigs.(r)) in
      (* Signature agreement is necessary, but a stale complement
         relation can slip in right after counterexamples; re-check in
         place. The skip is a pure filter (no verdict was sought), so it
         does not charge [tried]. *)
      if
        compl
        && not (Sg.equal_complement ~num_patterns:st.sim_np sig_n st.sigs.(r))
      then walk tried acc rest
      else
        match window_verdict st nd r with
        | (`Equal | `Compl) as v ->
          let c = v = `Compl in
          if acc = [] then begin
            st.stats.Stats.window_merges <- st.stats.Stats.window_merges + 1;
            C_merge (L.of_node r c)
          end
          else
            finish
              ({ Dispatch.c_rep = r; c_compl = c; c_window_eq = true } :: acc)
        | `Different ->
          st.stats.Stats.window_splits <- st.stats.Stats.window_splits + 1;
          walk (tried + 1) acc rest
        | `Unknown ->
          let c =
            { Dispatch.c_rep = r; c_compl = compl; c_window_eq = false }
          in
          walk (tried + 1) (c :: acc) rest)
  in
  walk 0 [] reps

let last_conflict_limit cfg =
  match List.rev cfg.retry_schedule with
  | top :: _ -> Some top
  | [] -> cfg.conflict_limit

(* Cube width: enough cubes to keep the pool busy (>= 2 per domain),
   capped at 4 variables (16 cubes) and by the cone's PI count. *)
let cube_vars ~domains ~available =
  if available = 0 then 0
  else begin
    let rec bits k = if 1 lsl k >= 2 * domains then k else bits (k + 1) in
    min (min 4 available) (bits 1)
  end

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

(* Re-attack the wave's hard tasks cube-and-conquer style: enumerate all
   2^k assignments of k cone PIs as assumption cubes and solve them
   across the pool. A pair merges only if every cube of its complete
   enumeration is UNSAT (each certified in certified mode); any SAT cube
   is an ordinary counterexample. *)
let cube_phase st disp tasks results =
  let hard = ref [] in
  Array.iteri
    (fun j (res : Dispatch.result) ->
      match res.Dispatch.r_outcome with
      | Dispatch.Hard c -> hard := (j, c) :: !hard
      | _ -> ())
    results;
  let hard = List.rev !hard in
  if hard <> [] && budget_ok st "sat" then begin
    let queries = ref [] and nq = ref 0 and spans = ref [] in
    List.iter
      (fun (j, (c : Dispatch.cand)) ->
        let node = tasks.(j).Dispatch.t_node in
        let pis = Aig.Cone.leaves st.fresh [ node; c.Dispatch.c_rep ] in
        let k =
          cube_vars ~domains:(Dispatch.domains disp)
            ~available:(List.length pis)
        in
        if k > 0 then begin
          let pis = take k pis in
          st.stats.Stats.cube_splits <- st.stats.Stats.cube_splits + 1;
          spans := (j, c, 1 lsl k, !nq) :: !spans;
          for m = 0 to (1 lsl k) - 1 do
            queries :=
              {
                Dispatch.q_node = node;
                q_rep = c.Dispatch.c_rep;
                q_compl = c.Dispatch.c_compl;
                q_cube = List.mapi (fun b pi -> (pi, (m lsr b) land 1 = 1)) pis;
              }
              :: !queries;
            incr nq
          done
        end)
      hard;
    let qarr = Array.of_list (List.rev !queries) in
    if Array.length qarr > 0 then begin
      st.stats.Stats.cube_queries <-
        st.stats.Stats.cube_queries + Array.length qarr;
      Obs.Trace.emitf "cube-and-conquer: %d hard pairs, %d cube queries"
        (List.length !spans) (Array.length qarr);
      let answers =
        timed st `Sat (fun () ->
            Dispatch.run_cubes disp
              ~conflict_limit:(last_conflict_limit st.cfg)
              qarr)
      in
      List.iter
        (fun (j, (c : Dispatch.cand), ncubes, start) ->
          let res = results.(j) in
          let counts = res.Dispatch.r_counts in
          let all_unsat = ref true in
          for i = start to start + ncubes - 1 do
            Dispatch.tally disp counts ~served:false answers.(i);
            match answers.(i) with
            | Sat.Tseitin.Equivalent -> ()
            | Sat.Tseitin.Counterexample ce ->
              all_unsat := false;
              res.Dispatch.r_ces <- ce :: res.Dispatch.r_ces
            | Sat.Tseitin.Undetermined | Sat.Tseitin.Uncertified _ ->
              all_unsat := false
          done;
          res.Dispatch.r_outcome <-
            (if !all_unsat then
               Dispatch.Merged
                 (L.of_node c.Dispatch.c_rep c.Dispatch.c_compl, false)
             else Dispatch.Exhausted))
        (List.rev !spans)
    end
  end

(* Merge phase for one task: fold the worker's counters into stats —
   the one place query outcomes become [Stats] — apply its
   counterexamples (validated by the worker) in attempt order, then
   apply the proven merge (if any) to the translation map. Runs only on
   the calling domain.

   [seen] deduplicates counterexample patterns across the whole sweep:
   tasks walk classes frozen since the last resimulation, so different
   tasks can return bit-identical counterexamples, and a duplicate
   pattern refines nothing — adding it would only grow the
   pattern set (and with it every subsequent resimulation) linearly in
   SAT answers. The query still counts into [sat_sat]; only the
   redundant pattern is dropped, so [ce_patterns] counts patterns that
   actually entered the simulation set. *)
let apply_result st seen (task : Dispatch.task) (res : Dispatch.result) map
    old_nd l =
  let c = res.Dispatch.r_counts and s = st.stats in
  s.Stats.sat_unsat <- s.Stats.sat_unsat + c.Dispatch.n_unsat;
  s.sat_sat <- s.sat_sat + c.n_sat;
  s.sat_undet <- s.sat_undet + c.n_undet;
  s.sat_retries <- s.sat_retries + c.n_retries;
  s.certified_unsat <- s.certified_unsat + c.n_cert_unsat;
  s.certified_models <- s.certified_models + c.n_cert_models;
  s.cache_hits <- s.cache_hits + c.n_cache_hits;
  s.cache_misses <- s.cache_misses + c.n_cache_misses;
  s.cache_rejected <- s.cache_rejected + c.n_cache_rejected;
  if c.n_cert_rejected > 0 then begin
    s.certificate_rejected <- s.certificate_rejected + c.n_cert_rejected;
    Obs.Trace.emitf
      "certificate rejected — node %d keeps its structural translation"
      task.Dispatch.t_node
  end;
  List.iter
    (fun ce ->
      let key =
        String.init (Array.length ce) (fun i -> if ce.(i) then '1' else '0')
      in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        note_counterexample st ce
      end)
    (List.rev res.Dispatch.r_ces);
  match res.Dispatch.r_outcome with
  | Dispatch.Merged (lit, via_window) ->
    if via_window then s.window_merges <- s.window_merges + 1;
    s.merges <- s.merges + 1;
    if L.is_const lit then s.const_merges <- s.const_merges + 1;
    map.(old_nd) <- L.xor_compl lit (L.is_compl l)
  | Dispatch.Exhausted | Dispatch.Hard _ -> ()
  | Dispatch.Stopped -> (
    match Obs.Budget.exhausted st.budget with
    | Some reason -> note_exhausted st reason "sat"
    | None -> ())

let sweep_ands st old_net map tr =
  let cfg = st.cfg in
  let disp =
    Dispatch.create ~domains:cfg.sat_domains ~certify:cfg.certify
      ~conflict_limit:cfg.conflict_limit ~retry_schedule:cfg.retry_schedule
      ~cache:cfg.cache ~cache_paranoid:cfg.cache_paranoid st.fresh st.budget
  in
  Fun.protect
    ~finally:(fun () ->
      let ds = Dispatch.solver_stats disp in
      st.stats.Stats.sat_decisions <-
        st.stats.Stats.sat_decisions + ds.Sat.Solver.decisions;
      st.stats.Stats.sat_conflicts <-
        st.stats.Stats.sat_conflicts + ds.Sat.Solver.conflicts;
      st.stats.Stats.sat_propagations <-
        st.stats.Stats.sat_propagations + ds.Sat.Solver.propagations;
      st.stats.Stats.sat_learned <-
        st.stats.Stats.sat_learned + ds.Sat.Solver.learned;
      Dispatch.shutdown disp)
  @@ fun () ->
  let ands = ref [] in
  A.iter_ands old_net (fun nd -> ands := nd :: !ands);
  let ands = Array.of_list (List.rev !ands) in
  let n = Array.length ands in
  let seen_ces = Hashtbl.create 256 in
  (* old node -> its task awaits a verdict in the current wave *)
  let awaiting = Array.make (A.num_nodes old_net) false in
  let fanin_awaits nd =
    awaiting.(L.node (A.fanin0 old_net nd))
    || awaiting.(L.node (A.fanin1 old_net nd))
  in
  let trace_every = 4096 in
  let i = ref 0 in
  while !i < n do
    (* Collect, up to the first node with a fanin awaiting a verdict. *)
    let tasks = ref [] and infos = ref [] in
    while !i < n && not (fanin_awaits ands.(!i)) do
      let old_nd = ands.(!i) in
      incr i;
      if Obs.Trace.enabled () && !i mod trace_every = 0 then
        Obs.Trace.emitf "progress: %d/%d ANDs, %d merges, %d SAT calls" !i n
          st.stats.Stats.merges
          (Stats.total_sat_calls st.stats);
      let before = A.num_nodes st.fresh in
      let l =
        A.add_and st.fresh
          (tr (A.fanin0 old_net old_nd))
          (tr (A.fanin1 old_net old_nd))
      in
      map.(old_nd) <- l;
      (* A structural hash hit or constant fold is already merged. Once
         the budget is gone the rest of the pass is a plain structural
         translation — no simulation, no SAT — and every merge recorded
         so far was proven, so the partial sweep stays equivalent. *)
      if A.num_nodes st.fresh <> before && budget_ok st "sweep" then begin
        register_new_nodes st;
        match collect st (L.node l) with
        | C_none -> ()
        | C_merge merged ->
          st.stats.Stats.merges <- st.stats.Stats.merges + 1;
          if L.is_const merged then
            st.stats.Stats.const_merges <- st.stats.Stats.const_merges + 1;
          map.(old_nd) <- L.xor_compl merged (L.is_compl l)
        | C_task cands ->
          tasks := { Dispatch.t_node = L.node l; t_cands = cands } :: !tasks;
          infos := (old_nd, l) :: !infos;
          awaiting.(old_nd) <- true
      end
    done;
    if !tasks <> [] then begin
      let tasks = Array.of_list (List.rev !tasks) in
      let infos = Array.of_list (List.rev !infos) in
      (* Solve: the network is frozen until the wave returns. *)
      let results =
        timed st `Sat (fun () -> Dispatch.run_wave disp tasks)
      in
      cube_phase st disp tasks results;
      (* Merge: single writer, task order. *)
      Array.iteri
        (fun j res ->
          let old_nd, l = infos.(j) in
          awaiting.(old_nd) <- false;
          apply_result st seen_ces tasks.(j) res map old_nd l)
        results
    end
  done

let run ?(config = stp_config) old_net =
  let t_start = Obs.Clock.now () in
  let stats = Stats.create () in
  let rng = Rng.create config.seed in
  let num_pis = A.num_pis old_net in
  Obs.Trace.emitf "sweep start: %d PIs, %d ANDs, %d POs" num_pis
    (A.num_ands old_net) (A.num_pos old_net);
  (* Initial patterns: random words, optionally refined by SAT-guided
     generation on the old network. *)
  let pats =
    P.random ~seed:(Rng.int64 rng) ~num_pis
      ~num_patterns:(32 * max 1 config.initial_words)
  in
  let budget =
    match config.budget with Some b -> b | None -> Obs.Budget.unlimited ()
  in
  if config.guided_init then begin
    let t0 = Obs.Clock.now () in
    let outcome =
      Guided_patterns.generate ~max_queries:config.guided_queries
        ?deadline:(Obs.Budget.deadline budget) old_net pats
        ~seed:(Rng.int64 rng)
    in
    stats.Stats.guided_time <-
      stats.Stats.guided_time +. (Obs.Clock.now () -. t0);
    (* Guided queries that came back UNSAT proved input nodes constant.
       The engine does not need them seeded: a truly constant node's
       signature collides with node 0 on every pattern set, so the
       class walk proves the merge anyway — but the work was real, so
       record it instead of discarding the list silently. *)
    stats.Stats.guided_consts <-
      List.length outcome.Guided_patterns.proven_const;
    Obs.Trace.emitf "guided init: +%d patterns, %d queries, %d consts proven"
      outcome.Guided_patterns.patterns_added outcome.Guided_patterns.queries
      stats.Stats.guided_consts
  end;
  stats.Stats.initial_patterns <- P.num_patterns pats;
  let fresh = A.create ~capacity:(A.num_nodes old_net) () in
  let st =
    {
      cfg = config;
      stats;
      fresh;
      rng;
      pats;
      plan = Sim.Kernel.compile_aig ~hint:(A.num_nodes old_net) fresh;
      sigs = Array.make (max 16 (A.num_nodes old_net)) [||];
      supports = Array.make (max 16 (A.num_nodes old_net)) None;
      window_tts = Array.make (max 16 (A.num_nodes old_net)) None;
      sig_count = 0;
      sim_np = P.num_patterns pats;
      classes = Equiv_classes.create ~num_patterns:(P.num_patterns pats);
      pending_ce = 0;
      budget;
    }
  in
  (* Guided init may already have eaten the whole budget. *)
  if config.guided_init then (
    match Obs.Budget.check_now st.budget with
    | Some reason -> note_exhausted st reason "guided"
    | None -> ());
  (* PIs first so indices line up; register their signatures. *)
  let map = Array.make (A.num_nodes old_net) (-1) in
  map.(0) <- L.false_;
  for i = 0 to num_pis - 1 do
    map.(A.pi_node old_net i) <- A.add_pi fresh
  done;
  register_new_nodes st;
  let tr l =
    let m = map.(L.node l) in
    assert (m >= 0);
    L.xor_compl m (L.is_compl l)
  in
  sweep_ands st old_net map tr;
  Array.iter (fun l -> ignore (A.add_po st.fresh (tr l))) (A.pos old_net);
  (* The fresh network still holds nodes that lost their fanout to a
     merge; a cleanup pass drops them. *)
  let result, _ = A.cleanup st.fresh in
  (* Opt-in self-check: cross-check every PO of the result against the
     input under fresh random patterns. A cheap necessary condition —
     {!Selfcheck.run} adds the full CEC pass on top. Runs outside the
     budget: a degraded result must still verify. *)
  if config.verify then begin
    let vpats =
      P.random ~seed:(Rng.int64 rng) ~num_pis ~num_patterns:(32 * 8)
    in
    let np = P.num_patterns vpats in
    let simulate net = Sim.Kernel.execute (Sim.Kernel.compile_aig net) vpats in
    let ta = simulate old_net and tb = simulate result in
    Array.iteri
      (fun o la ->
        let sa = Sim.Bitwise.po_signature ta ~num_patterns:np ~lit:la in
        let sb =
          Sim.Bitwise.po_signature tb ~num_patterns:np ~lit:(A.po result o)
        in
        if not (Sg.equal sa sb) then
          raise
            (Verification_failed
               (Printf.sprintf
                  "post-sweep bitwise check: PO %d differs from the input \
                   network"
                  o)))
      (A.pos old_net)
  end;
  stats.Stats.total_time <- Obs.Clock.now () -. t_start;
  Obs.Trace.emitf "sweep done: %d -> %d ANDs, %d merges, %.3fs"
    (A.num_ands old_net) (A.num_ands result) stats.Stats.merges
    stats.Stats.total_time;
  (result, stats)

module A = Aig.Network
module L = Aig.Lit
module Sg = Sim.Signature
module P = Sim.Patterns

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
  conflict_limits : int list;
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
    conflict_limits = [];
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
  cut : Cut_window.t;
  (* scratch of the cut-frontier tier; per sweep, since daemon domains
     run sweeps concurrently *)
  classes : Equiv_classes.t;
  mutable pending_ce : int;
  budget : Obs.Budget.t;
}

(* First exhaustion wins: record the reason and the phase where it was
   noticed, then stay degraded — [Obs.Budget] is sticky, so every later
   [budget_ok] call is a cheap [false]. *)
let note_exhausted st reason phase =
  if st.stats.Stats.budget_exhausted = None then
    st.stats.Stats.budget_exhausted <-
      Some { Stats.reason = Obs.Budget.reason_to_string reason; phase }

let budget_ok st phase =
  match Obs.Budget.check st.budget with
  | None -> true
  | Some reason ->
    note_exhausted st reason phase;
    false

(* Phase accounting ({!Stats}): clock reads stay per node (registration,
   window checks) or per wave, never per pattern word. *)
let span st phase f = Obs.Span.with_ st.stats.Stats.spans phase f

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
   "initial simulation" work ([sim]); the compile part is accounted
   separately ([plan_compile]) so plan cost stays visible. *)
let register_new_nodes st =
  let n = A.num_nodes st.fresh in
  if n > st.sig_count then begin
    span st "plan_compile" (fun () -> Sim.Kernel.extend_aig st.plan st.fresh);
    span st "sim" (fun () ->
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
  (* Any nodes added since the last registration first get rows over the
     covered prefix (no-op in the steady state). *)
  register_new_nodes st;
  let n = A.num_nodes st.fresh in
  span st "resim" (fun () ->
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
  span st "reclass" (fun () ->
      Equiv_classes.clear st.classes ~num_patterns:st.sim_np;
      for nd = 0 to n - 1 do
        Equiv_classes.add st.classes nd st.sigs.(nd)
      done);
  st.pending_ce <- 0

let note_counterexample st ce =
  (* Injected fault: lose the counter-example. The classes stay coarser
     than they should be, costing extra SAT calls — but never a wrong
     merge, since merges need proof regardless. *)
  if Obs.Fault.fires fault_drop_ce then ()
  else begin
    st.stats.Stats.ce_patterns <- st.stats.Stats.ce_patterns + 1;
    P.add_pattern st.pats ce;
    st.pending_ce <- st.pending_ce + 1;
    if st.pending_ce >= st.cfg.resim_batch then resimulate st
  end

(* First tier: exhaustive simulation over a <=5-leaf structural cut
   ({!Cut_window}). Sound but one-sided — it proves, never splits. In
   certified mode a proof is accepted only once its case-split DRUP
   proof replays on an independent checker; a rejected one counts as a
   rejected certificate and leaves the pair to the next tiers. *)
let cut_verdict st nd r =
  match Cut_window.verdict st.cut st.fresh nd r with
  | `Unknown -> `Unknown
  | (`Equal | `Compl) as v when not st.cfg.certify -> v
  | (`Equal | `Compl) as v -> (
    match Cut_window.prove st.cut st.fresh nd r ~compl:(v = `Compl) with
    | Ok () -> v
    | Error why ->
      st.stats.Stats.certificate_rejected <-
        st.stats.Stats.certificate_rejected + 1;
      Obs.Span.trace "cut-window proof rejected (%s) — node %d goes on" why
        nd;
      `Unknown)

(* Second tier: exhaustive-window comparison from the cached PI-support
   tables — lift both onto the joint support and compare columns.
   Exact: equal tables prove equivalence, different tables refute it. *)
let pi_window_verdict st nd r =
  match (st.supports.(nd), st.supports.(r)) with
  | Some sa, Some sb -> (
    match merge_support st.cfg.window_max_leaves sa sb with
    | None -> `Unknown
    | Some joint ->
      let module T = Tt.Truth_table in
      (* Structural duplicates usually share the support exactly; skip
         the lift then. *)
      let la, lb =
        if List.equal Int.equal sa sb then (window_tt st nd, window_tt st r)
        else
          ( lift_tt (window_tt st nd) sa joint,
            lift_tt (window_tt st r) sb joint )
      in
      if T.equal la lb then `Merge (false, false)
      else if T.equal la (T.not_ lb) then `Merge (true, false)
      else `Different)
  | _ -> `Unknown

(* The window tiers, cheapest first: [`Merge (compl, by_cut)] proves
   the pair, [`Different] refutes it, and [`Unknown] leaves it to the
   solver — so no SAT call happens on a decided pair. *)
let window_verdict st nd r =
  if not st.cfg.window_refine then `Unknown
  else if Obs.Fault.fires fault_fail_window then
    (* Injected fault: both tiers unavailable — fall back to the
       solver, which must reach the same verdict. *)
    `Unknown
  else
    span st "window" (fun () ->
        match cut_verdict st nd r with
        | `Equal -> `Merge (false, true)
        | `Compl -> `Merge (true, true)
        | `Unknown -> pi_window_verdict st nd r)

(* ---- the sweep loop ----

   One input-to-output pass over the old AND nodes, in waves. Collect:
   translate old nodes on the calling domain, resolving structural
   hits and window verdicts on the spot; a node whose walk still needs
   a query becomes a task carrying its pre-filtered candidate list.
   Solve: the network frozen, the solver pool answers the tasks
   completely ({!Dispatch.run_wave}): each member answers queries with
   its own incremental solver or, with the cache armed, through the
   cache; pairs whose conflict schedule ran dry are re-attacked
   cube-and-conquer style; the members' counters join [Stats]. Merge:
   the calling domain — the single writer — applies results in task
   order: proven merges into the map, counterexamples into the pattern
   set (batched into shared resimulations).

   A wave ends before the first old node with a fanin whose task still
   awaits its verdict. Every node is therefore translated through its
   fanins' final literals, and its walk settles on the lowest-numbered
   earlier node it is provably equal to (classes list members in node
   order and never split an equivalent pair). So while every query gets
   an answer (no conflict limit, no budget cut) and no walk reaches
   [max_compares], the result depends neither on the domain count nor
   on how the counterexamples refined the classes on the way. *)

type collected =
  | C_none
  | C_merge of L.t * bool
  | C_task of Dispatch.cand list * bool
(* [bool]: the merge, or the window equality closing the task, came
   from the cut tier *)

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
  let finish ~cut acc =
    match acc with [] -> C_none | l -> C_task (List.rev l, cut)
  in
  let rec walk tried acc = function
    | [] -> finish ~cut:false acc
    | _ when tried >= st.cfg.max_compares -> finish ~cut:false acc
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
        | `Merge (c, cut) ->
          if acc = [] then C_merge (L.of_node r c, cut)
          else
            finish ~cut
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

(* One proven merge into the map and the merge counters — a window
   merge settled at collect time and a task's [Merged] alike. *)
let commit st map old_nd l lit ~window ~cut =
  let s = st.stats in
  if window then begin
    s.Stats.window_merges <- s.Stats.window_merges + 1;
    if cut then s.Stats.cut_merges <- s.Stats.cut_merges + 1
  end;
  s.Stats.merges <- s.Stats.merges + 1;
  if L.is_const lit then s.Stats.const_merges <- s.Stats.const_merges + 1;
  map.(old_nd) <- L.xor_compl lit (L.is_compl l)

(* Merge phase for one task: apply its counterexamples (validated by
   the worker) in attempt order, then its proven merge (if any). Runs
   only on the calling domain.

   [seen] deduplicates counterexample patterns across the whole sweep:
   tasks walk classes frozen since the last resimulation, so different
   tasks can return bit-identical counterexamples, and a duplicate
   pattern refines nothing — adding it would only grow the
   pattern set (and with it every subsequent resimulation) linearly in
   SAT answers. The query still counts into [sat_sat]; only the
   redundant pattern is dropped, so [ce_patterns] counts patterns that
   actually entered the simulation set. *)
let apply_result st seen (res : Dispatch.result) map (old_nd, l, cut) =
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
  | Dispatch.Merged (lit, window) -> commit st map old_nd l lit ~window ~cut
  | Dispatch.Exhausted -> ()
  | Dispatch.Stopped -> (
    match Obs.Budget.exhausted st.budget with
    | Some reason -> note_exhausted st reason "sat"
    | None -> ())

let sweep_ands st old_net map tr =
  let cfg = st.cfg in
  let disp =
    span st "setup" (fun () ->
        Dispatch.create ~domains:cfg.sat_domains ~certify:cfg.certify
          ~conflict_limits:cfg.conflict_limits ~cache:cfg.cache
          ~cache_paranoid:cfg.cache_paranoid st.fresh st.budget st.stats)
  in
  Fun.protect ~finally:(fun () ->
      span st "cleanup" (fun () -> Dispatch.shutdown disp))
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
    let tasks, infos =
      span st "collect" (fun () ->
          let tasks = ref [] and infos = ref [] in
          while !i < n && not (fanin_awaits ands.(!i)) do
            let old_nd = ands.(!i) in
            incr i;
            if !i mod trace_every = 0 then
              Obs.Span.progress st.stats.Stats.spans
                "progress: %d/%d ANDs, %d merges, %d SAT calls" !i n
                st.stats.Stats.merges
                (Stats.total_sat_calls st.stats);
            let before = A.num_nodes st.fresh in
            let l =
              A.add_and st.fresh
                (tr (A.fanin0 old_net old_nd))
                (tr (A.fanin1 old_net old_nd))
            in
            map.(old_nd) <- l;
            (* A structural hash hit or constant fold is already merged.
               Once the budget is gone the rest of the pass is a plain
               structural translation — no simulation, no SAT — and
               every merge recorded so far was proven, so the partial
               sweep stays equivalent. *)
            if A.num_nodes st.fresh <> before && budget_ok st "sweep" then begin
              register_new_nodes st;
              match collect st (L.node l) with
              | C_none -> ()
              | C_merge (merged, cut) ->
                commit st map old_nd l merged ~window:true ~cut
              | C_task (cands, cut) ->
                tasks :=
                  { Dispatch.t_node = L.node l; t_cands = cands } :: !tasks;
                infos := (old_nd, l, cut) :: !infos;
                awaiting.(old_nd) <- true
            end
          done;
          (Array.of_list (List.rev !tasks), Array.of_list (List.rev !infos)))
    in
    if Array.length tasks > 0 then begin
      (* Solve: the network is frozen until the wave returns. *)
      let results = span st "sat" (fun () -> Dispatch.run_wave disp tasks) in
      (* Merge: single writer, task order. *)
      span st "apply" (fun () ->
          Array.iteri
            (fun j res ->
              let ((old_nd, _, _) as info) = infos.(j) in
              awaiting.(old_nd) <- false;
              apply_result st seen_ces res map info)
            results)
    end
  done

let run ?(config = stp_config) old_net =
  let stats = Stats.create () in
  let span phase f = Obs.Span.with_ stats.Stats.spans phase f in
  let result =
    span Stats.root @@ fun () ->
    let num_pis = A.num_pis old_net in
    (* Initial patterns: random words, optionally refined by SAT-guided
       generation on the old network. *)
    let pats =
      P.random ~seed:Sutil.Rng.(int64 (create config.seed)) ~num_pis
        ~num_patterns:(32 * max 1 config.initial_words)
    in
    let budget =
      match config.budget with Some b -> b | None -> Obs.Budget.unlimited ()
    in
    if config.guided_init then begin
      let o =
        span "guided" (fun () ->
            Guided_patterns.generate ~max_queries:config.guided_queries
              ?deadline:(Obs.Budget.deadline budget) old_net pats)
      in
      (* Proven constants need no seeding: a constant node's signature
         collides with node 0 on every pattern set, so the class walk
         merges it anyway. The counters record the guided work. *)
      stats.Stats.guided_consts <- List.length o.Guided_patterns.proven_const;
      stats.Stats.guided_sat_calls <- o.Guided_patterns.queries;
      stats.Stats.guided_patterns <- o.Guided_patterns.patterns_added
    end;
    stats.Stats.initial_patterns <- P.num_patterns pats;
    let fresh = A.create ~capacity:(A.num_nodes old_net) () in
    let st =
      span "setup" (fun () ->
          {
            cfg = config;
            stats;
            fresh;
            pats;
            plan = Sim.Kernel.compile_aig ~hint:(A.num_nodes old_net) fresh;
            sigs = Array.make (max 16 (A.num_nodes old_net)) [||];
            supports = Array.make (max 16 (A.num_nodes old_net)) None;
            window_tts = Array.make (max 16 (A.num_nodes old_net)) None;
            cut = Cut_window.create ();
            sig_count = 0;
            sim_np = P.num_patterns pats;
            classes = Equiv_classes.create ~num_patterns:(P.num_patterns pats);
            pending_ce = 0;
            budget;
          })
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
    (* The fresh network still holds nodes that lost their fanout to a
       merge; a cleanup pass drops them. *)
    span "cleanup" (fun () ->
        Array.iter (fun l -> ignore (A.add_po st.fresh (tr l))) (A.pos old_net);
        fst (A.cleanup st.fresh))
  in
  Obs.Span.progress stats.Stats.spans
    "sweep done: %d -> %d ANDs, %d merges, %.3fs" (A.num_ands old_net)
    (A.num_ands result) stats.Stats.merges (Stats.total_time stats);
  (result, stats)

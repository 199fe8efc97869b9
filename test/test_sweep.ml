(* Sweeping-engine tests. The non-negotiable property: sweeping never
   changes the function (checked by CEC and, on small circuits, by
   exhaustive evaluation). Then: redundancy actually gets removed, the
   STP configuration spends fewer SAT calls than the baseline, and the
   pieces (classes, guided patterns, CEC) behave. *)

module A = Aig.Network
module L = Aig.Lit
module Rng = Sutil.Rng
module Sg = Sim.Signature

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let stp_config = Sweep.Engine.stp_config
let fraig_config = Sweep.Engine.fraig_config
let budget ?deadline ?timeout () = Some (Obs.Budget.create ?deadline ?timeout ())

let eval net inputs =
  let v = Array.make (A.num_nodes net) false in
  A.iter_nodes net (fun nd ->
      match A.kind net nd with
      | A.Const -> ()
      | A.Pi i -> v.(nd) <- inputs.(i)
      | A.And ->
        let f l = v.(L.node l) <> L.is_compl l in
        v.(nd) <- f (A.fanin0 net nd) && f (A.fanin1 net nd));
  Array.map (fun l -> v.(L.node l) <> L.is_compl l) (A.pos net)

let exhaustive_equal a b =
  let n = A.num_pis a in
  assert (n <= 14);
  A.num_pis a = A.num_pis b
  && A.num_pos a = A.num_pos b
  &&
  let ok = ref true in
  for i = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun p -> (i lsr p) land 1 = 1) in
    if eval a x <> eval b x then ok := false
  done;
  !ok

let random_network rng ~pis ~gates ~pos =
  let net = A.create () in
  let inputs = Array.init pis (fun _ -> A.add_pi net) in
  let all = ref (Array.to_list inputs) in
  for _ = 1 to gates do
    let pick () =
      let l = List.nth !all (Rng.int rng (List.length !all)) in
      L.xor_compl l (Rng.bool rng)
    in
    let l = A.add_and net (pick ()) (pick ()) in
    if not (L.is_const l) then all := l :: !all
  done;
  for _ = 1 to pos do
    let l = List.nth !all (Rng.int rng (List.length !all)) in
    ignore (A.add_po net (L.xor_compl l (Rng.bool rng)))
  done;
  net

(* ---- equivalence classes ---- *)

let test_equiv_classes () =
  let m = Sweep.Equiv_classes.create ~num_patterns:8 in
  let s1 = [| 0b10110100 |] in
  let s1c = Sg.complement_of ~num_patterns:8 s1 in
  let s2 = [| 0b11110000 |] in
  Sweep.Equiv_classes.add m 1 s1;
  Sweep.Equiv_classes.add m 2 s2;
  Sweep.Equiv_classes.add m 3 s1c;
  Sweep.Equiv_classes.add m 4 s1;
  Alcotest.(check (list int)) "class of s1" [ 1; 3; 4 ]
    (Sweep.Equiv_classes.candidates m s1);
  Alcotest.(check (list int)) "complement joins the class" [ 1; 3; 4 ]
    (Sweep.Equiv_classes.candidates m s1c);
  Alcotest.(check (list int)) "s2 alone" [ 2 ] (Sweep.Equiv_classes.candidates m s2);
  check_int "one multi class" 1 (Sweep.Equiv_classes.class_count m);
  Alcotest.(check (list int)) "candidate nodes" [ 1; 3; 4 ]
    (Sweep.Equiv_classes.candidate_nodes m);
  Sweep.Equiv_classes.clear m ~num_patterns:8;
  check_int "cleared" 0 (Sweep.Equiv_classes.class_count m)

(* ---- CEC ---- *)

let test_cec () =
  let rng = Rng.create 99L in
  let net = random_network rng ~pis:6 ~gates:40 ~pos:4 in
  let copy, _ = A.cleanup net in
  (match Sweep.Cec.check net copy with
   | Sweep.Cec.Equivalent -> ()
   | _ -> Alcotest.fail "identical networks must check");
  (* Break one output. *)
  let broken = A.create () in
  let inputs = Array.init (A.num_pis net) (fun _ -> A.add_pi broken) in
  let map = Array.make (A.num_nodes net) (-1) in
  map.(0) <- L.false_;
  A.iter_nodes net (fun nd ->
      match A.kind net nd with
      | A.Const -> ()
      | A.Pi i -> map.(nd) <- inputs.(i)
      | A.And ->
        let tr l = L.xor_compl map.(L.node l) (L.is_compl l) in
        map.(nd) <- A.add_and broken (tr (A.fanin0 net nd)) (tr (A.fanin1 net nd)));
  Array.iteri
    (fun o l ->
      let tl = L.xor_compl map.(L.node l) (L.is_compl l) in
      ignore (A.add_po broken (if o = 2 then L.not_ tl else tl)))
    (A.pos net);
  match Sweep.Cec.check net broken with
  | Sweep.Cec.Different { po; counterexample = _ } -> check_int "po found" 2 po
  | _ -> Alcotest.fail "broken network must fail CEC"

(* ---- guided patterns ---- *)

let test_guided_patterns () =
  let net = A.create () in
  let a = A.add_pi net and b = A.add_pi net and c = A.add_pi net in
  (* A node that is 1 only on a single assignment — random patterns with
     few words may miss it; guided generation must find it. *)
  let rare = A.add_and net (A.add_and net a b) c in
  (* And a real constant: x & !x through separate structure. *)
  let k = A.add_and net (A.add_and net a b) (L.not_ a) in
  ignore (A.add_po net rare);
  ignore (A.add_po net k);
  let pats = Sim.Patterns.create ~num_pis:3 in
  (* Seed with patterns that keep [rare] at 0: everything with a=0. *)
  for i = 0 to 31 do
    Sim.Patterns.add_pattern pats [| false; i land 1 = 1; i land 2 = 2 |]
  done;
  let outcome = Sweep.Guided_patterns.generate net pats in
  check "patterns were added" true (outcome.Sweep.Guided_patterns.patterns_added > 0);
  check "constant proven" true
    (List.mem (L.node k, false) outcome.Sweep.Guided_patterns.proven_const);
  (* The rare node must now toggle under the refined pattern set. *)
  let tbl = Sim.Kernel.execute (Sim.Kernel.compile_aig net) pats in
  check "rare node toggles" true (Sg.count_ones tbl.(L.node rare) > 0)

(* Guided initialization asks the cut tier before the solver. Nodes:
   [ab = a & b], the cut-provable constant [k = ab & !a], and (with
   [rare]) [ab & c], which is 1 on one assignment only. The seed
   patterns toggle [ab] but hold [c] at 0, so the candidates are [k]
   and [rare], in that order. *)
let test_guided_cut_first () =
  let tiny ~rare =
    let net = A.create () in
    let a = A.add_pi net and b = A.add_pi net and c = A.add_pi net in
    let ab = A.add_and net a b in
    let k = A.add_and net ab (L.not_ a) in
    let r = if rare then A.add_and net ab c else ab in
    List.iter (fun l -> ignore (A.add_po net l)) [ k; r ];
    let pats = Sim.Patterns.create ~num_pis:3 in
    for i = 0 to 31 do
      Sim.Patterns.add_pattern pats [| i land 1 = 1; i land 2 = 2; false |]
    done;
    (net, pats, L.node k, L.node r)
  in
  let module G = Sweep.Guided_patterns in
  (* (i) The only candidate is cut-provable: proven with no query. *)
  let net, pats, k, _ = tiny ~rare:false in
  let o = G.generate net pats in
  check_int "no SAT query" 0 o.G.queries;
  check "cut-proven constant listed" true (o.G.proven_const = [ (k, false) ]);
  (* (ii) [rare] still gets its SAT query, and a pattern toggling it;
     every query is satisfiable, since [k] never reached the solver. *)
  let net, pats, k, rare = tiny ~rare:true in
  let o = G.generate net pats in
  check "rare node queried" true (o.G.queries > 0);
  check_int "every query added a pattern" o.G.queries o.G.patterns_added;
  check "constant proven" true (o.G.proven_const = [ (k, false) ]);
  let tbl = Sim.Kernel.execute (Sim.Kernel.compile_aig net) pats in
  check "rare node toggles" true (Sg.count_ones tbl.(rare) > 0);
  (* (iii) A cut-proven candidate counts against [max_queries]: with a
     budget of one, [k] spends it and [rare] is not examined. *)
  let net, pats, k, _ = tiny ~rare:true in
  let o = G.generate ~max_queries:1 net pats in
  check_int "budget spent on the cut proof" 0 o.G.queries;
  check_int "no pattern" 0 o.G.patterns_added;
  check "constant proven" true (o.G.proven_const = [ (k, false) ])

(* ---- sweeping ---- *)

let sweep_preserves engine_name sweeper =
  let rng = Rng.create 1234L in
  for round = 1 to 12 do
    let base = random_network rng ~pis:7 ~gates:60 ~pos:5 in
    let net = Gen.Redundant.inject ~seed:(Rng.int64 rng) ~fraction:0.4 base in
    let swept, stats = sweeper net in
    if not (exhaustive_equal net swept) then
      Alcotest.failf "%s round %d: function changed" engine_name round;
    (match Sweep.Cec.check net swept with
     | Sweep.Cec.Equivalent -> ()
     | _ -> Alcotest.failf "%s round %d: CEC failed" engine_name round);
    if A.num_ands swept > A.num_ands net then
      Alcotest.failf "%s round %d: grew" engine_name round;
    if Sweep.Stats.total_time stats < 0. then
      Alcotest.failf "%s round %d: negative time" engine_name round
  done

let test_fraig_preserves () = sweep_preserves "fraig" (fun n -> Sweep.Fraig.sweep n)
let test_stp_preserves () = sweep_preserves "stp" (fun n -> Sweep.Stp_sweep.sweep n)

let test_sweep_removes_redundancy () =
  let rng = Rng.create 77L in
  let base = random_network rng ~pis:8 ~gates:80 ~pos:6 in
  let redundant = Gen.Redundant.inject ~seed:3L ~fraction:0.5 base in
  check "injection grew the network" true
    (A.num_ands redundant > A.num_ands base);
  let swept_f, _ = Sweep.Fraig.sweep redundant in
  let swept_s, _ = Sweep.Stp_sweep.sweep redundant in
  (* Sweeping must reconverge most of the duplicates: the result should
     be close to the base size, certainly no bigger than the redundant
     input. *)
  check "fraig shrank" true (A.num_ands swept_f < A.num_ands redundant);
  check "stp shrank" true (A.num_ands swept_s < A.num_ands redundant);
  (* Both engines are exact, so they must agree with each other. *)
  match Sweep.Cec.check swept_f swept_s with
  | Sweep.Cec.Equivalent -> ()
  | _ -> Alcotest.fail "engines disagree"

let test_stp_saves_sat_calls () =
  (* On redundancy-heavy circuits the windowed engine must spend fewer
     satisfiable SAT calls than the baseline — the paper's headline
     Table II effect. Aggregate over several circuits to avoid noise. *)
  let rng = Rng.create 31415L in
  let total_f = ref 0 and total_s = ref 0 in
  for _ = 1 to 6 do
    let base = random_network rng ~pis:8 ~gates:120 ~pos:6 in
    let net = Gen.Redundant.inject ~seed:(Rng.int64 rng) ~fraction:0.4 base in
    let _, st_f = Sweep.Fraig.sweep net in
    let _, st_s = Sweep.Stp_sweep.sweep net in
    total_f := !total_f + st_f.Sweep.Stats.sat_sat;
    total_s := !total_s + st_s.Sweep.Stats.sat_sat
  done;
  if !total_s > !total_f then
    Alcotest.failf "stp used more satisfiable calls (%d) than fraig (%d)"
      !total_s !total_f

let test_sweep_constant_nodes () =
  (* Structurally hidden constants must be substituted. *)
  let net = A.create () in
  let a = A.add_pi net and b = A.add_pi net in
  let x = A.add_xor net a b in
  let y = A.add_xor net a (L.not_ b) in
  (* x | y is a tautology; (x & y) is constant false. *)
  let taut = A.add_or net x y in
  let contra = A.add_and net x y in
  ignore (A.add_po net taut);
  ignore (A.add_po net contra);
  let swept, stats = Sweep.Stp_sweep.sweep net in
  check "taut PO is const" true (A.po swept 0 = L.true_);
  check "contra PO is const" true (A.po swept 1 = L.false_);
  check_int "no gates left" 0 (A.num_ands swept);
  check "counted" true (stats.Sweep.Stats.merges > 0)

let test_sweep_idempotent () =
  let rng = Rng.create 5150L in
  let base = random_network rng ~pis:6 ~gates:70 ~pos:4 in
  let net = Gen.Redundant.inject ~seed:8L ~fraction:0.5 base in
  let once, _ = Sweep.Stp_sweep.sweep net in
  let twice, stats = Sweep.Stp_sweep.sweep once in
  check "second sweep finds nothing" true
    (A.num_ands twice = A.num_ands once);
  check "second sweep is cheap" true (stats.Sweep.Stats.merges = 0)

(* The run report's phases: the six the paper's tables draw on, then
   the engine's own stretches, each a span name. *)
let phase_keys =
  [ "sim"; "plan_compile"; "guided"; "resim"; "window"; "sat"; "setup";
    "collect"; "apply"; "reclass"; "cleanup" ]

(* Wall-clock phase accounting: every phase is a span name billed with
   self time, so each is nonnegative and — since each instant of the
   sweep bills to exactly one span — the phases sum to at most
   total_time, the rest being the root span's own time (small epsilon
   for float accumulation). *)
let check_phase_accounting label st =
  let open Sweep.Stats in
  let eps = 1e-6 in
  let phases = phase_times st in
  if List.map fst phases <> phase_keys then
    Alcotest.failf "%s: phases are %s" label
      (String.concat "," (List.map fst phases));
  List.iter
    (fun (name, t) ->
      if t < -.eps then Alcotest.failf "%s: phase %s negative" label name)
    phases;
  let sum = List.fold_left (fun acc (_, t) -> acc +. t) 0. phases in
  if sum > total_time st +. eps then
    Alcotest.failf "%s: phases sum (%g) exceeds total (%g)" label sum
      (total_time st);
  check (label ^ ": simulation_time consistent") true
    (Float.abs
       (simulation_time st
       -. List.fold_left
            (fun acc k -> acc +. List.assoc k phases)
            0.
            [ "sim"; "plan_compile"; "guided"; "resim"; "window" ])
    < eps)

(* The JSON report must survive a print/parse cycle and carry the full
   phase breakdown plus the SAT solver internals. *)
let check_report_roundtrip label st =
  let open Sweep.Stats in
  let j = to_json st in
  (match Obs.Json.of_string (Obs.Json.to_string ~pretty:true j) with
   | Ok j' ->
     if j <> j' then Alcotest.failf "%s: JSON report does not round-trip" label
   | Error e -> Alcotest.failf "%s: report unparseable: %s" label e);
  let phases =
    match Obs.Json.member "phases_s" j with
    | Some (Obs.Json.Obj kvs) -> kvs
    | _ -> Alcotest.failf "%s: no phases_s object" label
  in
  List.iter
    (fun k ->
      if not (List.mem_assoc k phases) then
        Alcotest.failf "%s: phase %s missing from report" label k)
    (phase_keys @ [ "total" ]);
  let num k =
    match List.assoc k phases with
    | Obs.Json.Float f -> f
    | _ -> Alcotest.failf "%s: phase %s is not a float" label k
  in
  let sum = List.fold_left (fun acc k -> acc +. num k) 0. phase_keys in
  if sum > num "total" +. 1e-6 then
    Alcotest.failf "%s: reported phases exceed the total" label;
  let solver =
    match Obs.Json.member "sat_solver" j with
    | Some (Obs.Json.Obj kvs) -> kvs
    | _ -> Alcotest.failf "%s: no sat_solver object" label
  in
  List.iter
    (fun k ->
      if not (List.mem_assoc k solver) then
        Alcotest.failf "%s: solver stat %s missing from report" label k)
    [ "decisions"; "conflicts"; "propagations"; "learned" ];
  (* Work the solver did must be visible: any completed SAT call implies
     propagations. *)
  if
    total_sat_calls st > st.sat_undet
    && Obs.Json.member "propagations" (Obs.Json.Obj solver) = Some (Obs.Json.Int 0)
  then Alcotest.failf "%s: SAT calls ran but zero propagations reported" label

let test_stats_invariants () =
  let rng = Rng.create 2718L in
  let base = random_network rng ~pis:7 ~gates:100 ~pos:5 in
  let net = Gen.Redundant.inject ~seed:6L ~fraction:0.4 base in
  List.iter2
    (fun label (swept, st) ->
      let open Sweep.Stats in
      check "total = sat+unsat+undet" true
        (total_sat_calls st = st.sat_sat + st.sat_unsat + st.sat_undet);
      check "window merges within merges" true (st.window_merges <= st.merges);
      check "const merges within merges" true (st.const_merges <= st.merges);
      check "ce = sat outcomes" true (st.ce_patterns = st.sat_sat);
      let sim = List.assoc "sim" (phase_times st) in
      check "times nonnegative" true (sim >= 0. && total_time st >= sim);
      check "initial patterns recorded" true (st.initial_patterns >= 32);
      check "swept not larger" true (A.num_ands swept <= A.num_ands net);
      check_phase_accounting label st;
      check_report_roundtrip label st)
    [ "fraig"; "stp" ]
    [ Sweep.Fraig.sweep net; Sweep.Stp_sweep.sweep net ]

(* qcheck: the phase/report invariants hold on arbitrary circuits under
   both engines, not just the hand-picked ones above. *)
let arb_sweep_case =
  QCheck.make
    ~print:(fun (seed, gates, stp) ->
      Printf.sprintf "seed=%Ld gates=%d engine=%s" seed gates
        (if stp then "stp" else "fraig"))
    QCheck.Gen.(
      let* seed = ui64 in
      let* gates = int_range 10 120 in
      let* stp = bool in
      return (seed, gates, stp))

let prop_phase_accounting (seed, gates, stp) =
  let rng = Rng.create seed in
  let base = random_network rng ~pis:6 ~gates ~pos:4 in
  let net = Gen.Redundant.inject ~seed:(Rng.int64 rng) ~fraction:0.3 base in
  let _, st = if stp then Sweep.Stp_sweep.sweep net else Sweep.Fraig.sweep net in
  check_phase_accounting "qcheck" st;
  check_report_roundtrip "qcheck" st;
  true

let test_engine_ablation_configs () =
  (* Every knob combination must preserve the function. *)
  let rng = Rng.create 424242L in
  let base = random_network rng ~pis:6 ~gates:60 ~pos:4 in
  let net = Gen.Redundant.inject ~seed:12L ~fraction:0.5 base in
  List.iter
    (fun cfg ->
      let swept, _ = Sweep.Engine.run ~config:cfg net in
      if not (exhaustive_equal net swept) then
        Alcotest.fail "ablation config broke the function")
    [
      Sweep.Engine.fraig_config;
      { Sweep.Engine.fraig_config with Sweep.Engine.guided_init = true; guided_queries = 64 };
      { Sweep.Engine.fraig_config with Sweep.Engine.window_refine = true };
      { Sweep.Engine.stp_config with Sweep.Engine.window_max_leaves = 6 };
      { Sweep.Engine.stp_config with Sweep.Engine.max_compares = 2 };
      { Sweep.Engine.stp_config with Sweep.Engine.conflict_limits = [ 1 ] };
      { Sweep.Engine.stp_config with Sweep.Engine.resim_batch = 1 };
      { Sweep.Engine.stp_config with Sweep.Engine.initial_words = 1 };
    ]

let test_window_merges_happen () =
  (* Small-TFI duplicates must be merged without SAT by the STP engine. *)
  let net = A.create () in
  let a = A.add_pi net and b = A.add_pi net and c = A.add_pi net in
  let x1 = A.add_xor net (A.add_and net a b) c in
  let n1 = L.not_ (A.add_and net (A.add_and net a b) c) in
  let n2 = L.not_ (A.add_and net (A.add_and net a b) (L.not_ c)) in
  let x2 = L.not_ (A.add_and net n1 n2) in
  (* x2 = (a&b) xnor ... build a real duplicate of x1 via nand identity:
     xor(p, c) with p = a&b. *)
  ignore (A.add_po net x1);
  ignore (A.add_po net x2);
  let swept, stats = Sweep.Stp_sweep.sweep net in
  check "still equivalent" true (exhaustive_equal net swept);
  check "windows did work" true
    (stats.Sweep.Stats.window_merges + stats.Sweep.Stats.window_splits > 0)

let test_parallel_sweep_identical () =
  (* The sharded simulators are bit-identical, so the whole sweep — every
     merge decision included — must be deterministic in sim_domains. The
     tiny par_threshold forces the parallel path from the first
     resimulation on. *)
  let rng = Rng.create 0xD011A1L in
  for _ = 1 to 3 do
    let net = random_network rng ~pis:8 ~gates:120 ~pos:4 in
    let run domains =
      Sweep.Engine.run
        ~config:
          {
            Sweep.Engine.stp_config with
            Sweep.Engine.sim_domains = domains;
            par_threshold = 32;
          }
        net
    in
    let seq, seq_stats = run 1 in
    let par, par_stats = run 3 in
    check "same node count" true (A.num_nodes seq = A.num_nodes par);
    check_int "same merges" seq_stats.Sweep.Stats.merges
      par_stats.Sweep.Stats.merges;
    check "function preserved" true (exhaustive_equal net par)
  done

(* ---- exhaustive windows ---- *)

let test_window_exact_equivalence () =
  (* An XOR and its NAND-built twin over two PIs, next to an unrelated
     AND: the STP engine's exhaustive window proves the twins equal
     without the solver, where the baseline needs one UNSAT query; the
     unrelated AND merges with neither. *)
  let net = A.create () in
  let a = A.add_pi net and b = A.add_pi net and c = A.add_pi net in
  let x1 = A.add_xor net a b in
  let n1 = L.not_ (A.add_and net a b) in
  let n2 = L.not_ (A.add_and net a n1) in
  let n3 = L.not_ (A.add_and net b n1) in
  let x2 = L.not_ (A.add_and net n2 n3) in
  let other = A.add_and net a c in
  List.iter (fun l -> ignore (A.add_po net l)) [ x1; x2; other ];
  let swept_s, st_s = Sweep.Stp_sweep.sweep net in
  let swept_f, st_f = Sweep.Fraig.sweep net in
  check "stp preserves the function" true (exhaustive_equal net swept_s);
  check "fraig preserves the function" true (exhaustive_equal net swept_f);
  check_int "stp: one window merge" 1 st_s.Sweep.Stats.window_merges;
  check_int "stp: no SAT call" 0 (Sweep.Stats.total_sat_calls st_s);
  check_int "fraig: one UNSAT" 1 st_f.Sweep.Stats.sat_unsat;
  List.iter
    (fun (label, swept) ->
      check (label ^ ": twins share a literal") true (A.po swept 0 = A.po swept 1);
      check (label ^ ": the AND stays apart") true (A.po swept 2 <> A.po swept 0))
    [ ("stp", swept_s); ("fraig", swept_f) ]

let test_window_too_wide () =
  (* A 20-PI AND chain and a balanced-tree duplicate. Every tree node
     below the top covers at most 16 PIs, so prefixes merge by window;
     the top pair spans 20 PIs — wider than any window — and only the
     solver can prove it. *)
  let pis = 20 in
  let net = A.create () in
  let ins = Array.init pis (fun _ -> A.add_pi net) in
  let chain = Array.fold_left (fun acc p -> A.add_and net acc p) L.true_ ins in
  let rec tree lo hi =
    if lo = hi then ins.(lo)
    else
      let mid = (lo + hi) / 2 in
      A.add_and net (tree lo mid) (tree (mid + 1) hi)
  in
  let dup = tree 0 (pis - 1) in
  ignore (A.add_po net chain);
  ignore (A.add_po net dup);
  let swept, st = Sweep.Stp_sweep.sweep net in
  (match Sweep.Cec.check net swept with
  | Sweep.Cec.Equivalent -> ()
  | _ -> Alcotest.fail "sweep not CEC-equivalent");
  check "duplicate merged" true (A.po swept 0 = A.po swept 1);
  check "the top merge needed SAT" true (st.Sweep.Stats.sat_unsat >= 1)

(* ---- compare-budget charging (regression) ---- *)

let test_max_compares_charges_window_splits () =
  (* Three structurally distinct 14-PI minterms plus a balanced-tree
     duplicate of the last one. Every minterm signature is all-zeros
     under any realistic random pattern set, so they all land in the
     constant-0 class, and the duplicate's candidate walk marches
     through constant 0 and the foreign minterms — all window-proved
     splits — before reaching its window-equal twin. With
     [max_compares = 1] the walk must stop at the first split; before
     the fix only counterexample attempts were charged, so a
     window-split-dominated class was never bounded and the merge
     happened regardless of the budget. *)
  let pis = 14 in
  let net = A.create () in
  let ins = Array.init pis (fun _ -> A.add_pi net) in
  let lit i phase = L.xor_compl ins.(i) phase in
  let chain phases =
    let acc = ref (lit 0 phases.(0)) in
    for i = 1 to pis - 1 do
      acc := A.add_and net !acc (lit i phases.(i))
    done;
    !acc
  in
  let p3 = Array.init pis (fun i -> i = 1) in
  let m1 = chain (Array.make pis false) in
  let m2 = chain (Array.init pis (fun i -> i = 0)) in
  let m3 = chain p3 in
  let rec tree lo hi =
    if lo = hi then lit lo p3.(lo)
    else
      let mid = (lo + hi) / 2 in
      A.add_and net (tree lo mid) (tree (mid + 1) hi)
  in
  let d3 = tree 0 (pis - 1) in
  List.iter (fun l -> ignore (A.add_po net l)) [ m1; m2; m3; d3 ];
  (* Guided init off: its rare-value queries would add patterns that
     split the minterms apart before the walk under test ever runs. *)
  let run ~max_compares ~sat_domains =
    Sweep.Engine.run
      ~config:
        {
          Sweep.Engine.stp_config with
          Sweep.Engine.guided_init = false;
          guided_queries = 0;
          max_compares;
          sat_domains;
        }
      net
  in
  (* The balanced tree's inner nodes merge onto chain prefixes with
     unique signatures — first-candidate window merges that cost no
     compare budget and happen under either setting. Only the top-level
     duplicate sits behind a wall of window splits, so a correctly
     charged budget of 1 must find exactly one merge fewer than the
     ample budget; the uncharged-splits bug made the two runs agree. *)
  List.iter
    (fun sat_domains ->
      let label = Printf.sprintf "sat_domains=%d" sat_domains in
      let starved, st1 = run ~max_compares:1 ~sat_domains in
      check (label ^ ": function preserved (starved)") true
        (exhaustive_equal net starved);
      check (label ^ ": splits were charged") true
        (st1.Sweep.Stats.window_splits > 0);
      let swept, st = run ~max_compares:1000 ~sat_domains in
      check (label ^ ": function preserved") true (exhaustive_equal net swept);
      check
        (label ^ ": starved walk stops short of the split-guarded twin")
        true
        (st1.Sweep.Stats.merges < st.Sweep.Stats.merges))
    [ 1; 2 ]

(* ---- parallel SAT dispatch ---- *)

let with_cache_dir f =
  let dir = Filename.temp_file "swcache" "" in
  Sys.remove dir;
  let rec rm p =
    if (try Sys.is_directory p with Sys_error _ -> false) then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      try Unix.rmdir p with Unix.Unix_error _ -> ()
    end
    else try Sys.remove p with Sys_error _ -> ()
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let dispatch_config ?(certify = false) ~sat_domains () =
  { Sweep.Engine.stp_config with Sweep.Engine.sat_domains; certify }

let test_dispatch_domains_agree () =
  (* --sat-domains 1/2/4 must produce CEC-equivalent results with
     identical merge counts: merges are proof-gated and the solver is
     complete without a conflict limit, so which domain runs a task
     cannot change its verdict. *)
  let rng = Rng.create 0xD15BA7L in
  for round = 1 to 3 do
    let base = random_network rng ~pis:8 ~gates:150 ~pos:5 in
    let net = Gen.Redundant.inject ~seed:(Rng.int64 rng) ~fraction:0.4 base in
    let runs =
      List.map
        (fun d -> (d, Sweep.Engine.run ~config:(dispatch_config ~sat_domains:d ()) net))
        [ 1; 2; 4 ]
    in
    let _, (r1, s1) = List.hd runs in
    List.iter
      (fun (d, (r, s)) ->
        if not (exhaustive_equal net r) then
          Alcotest.failf "round %d: %d domains changed the function" round d;
        (match Sweep.Cec.check net r with
        | Sweep.Cec.Equivalent -> ()
        | _ -> Alcotest.failf "round %d: %d domains fail CEC" round d);
        check_int
          (Printf.sprintf "round %d: merges agree (1 vs %d domains)" round d)
          s1.Sweep.Stats.merges s.Sweep.Stats.merges;
        check_int
          (Printf.sprintf "round %d: size agrees (1 vs %d domains)" round d)
          (A.num_ands r1) (A.num_ands r))
      runs
  done

let arb_dispatch_case =
  QCheck.make
    ~print:(fun (seed, gates, certify) ->
      Printf.sprintf "seed=%Ld gates=%d certify=%b" seed gates certify)
    QCheck.Gen.(
      let* seed = ui64 in
      let* gates = int_range 40 160 in
      let* certify = bool in
      return (seed, gates, certify))

let prop_dispatch_equivalent (seed, gates, certify) =
  let rng = Rng.create seed in
  let base = random_network rng ~pis:7 ~gates ~pos:4 in
  let net = Gen.Redundant.inject ~seed:(Rng.int64 rng) ~fraction:0.4 base in
  let runs =
    List.map
      (fun d ->
        Sweep.Engine.run ~config:(dispatch_config ~certify ~sat_domains:d ()) net)
      [ 1; 2; 4 ]
  in
  let _, s1 = List.hd runs in
  List.iter
    (fun (r, s) ->
      if not (exhaustive_equal net r) then
        QCheck.Test.fail_report "dispatched sweep changed the function";
      if s.Sweep.Stats.merges <> s1.Sweep.Stats.merges then
        QCheck.Test.fail_reportf "merge counts diverge: %d vs %d"
          s1.Sweep.Stats.merges s.Sweep.Stats.merges;
      if certify then begin
        if s.Sweep.Stats.certificate_rejected <> 0 then
          QCheck.Test.fail_reportf "%d certificates rejected on an honest run"
            s.Sweep.Stats.certificate_rejected;
        if s.Sweep.Stats.sat_unsat <> s.Sweep.Stats.certified_unsat then
          QCheck.Test.fail_report "not every UNSAT was certified";
        if s.Sweep.Stats.sat_sat <> s.Sweep.Stats.certified_models then
          QCheck.Test.fail_report "not every model was certified"
      end;
      check_phase_accounting "dispatch" s;
      check_report_roundtrip "dispatch" s)
    runs;
  true

let test_dispatch_cube_and_conquer () =
  (* A starved conflict limit makes real miters exhaust the retry
     schedule, so hard candidates must reach the cube-and-conquer
     phase — and however the cubes come back, the result stays
     equivalent: plain, certified (every cube's UNSAT replays under its
     own cube), or with the cache strategy answering the walk. *)
  let rng = Rng.create 0xC0BE5L in
  let base = random_network rng ~pis:12 ~gates:400 ~pos:6 in
  let net = Gen.Redundant.inject ~seed:23L ~fraction:0.4 base in
  List.iter
    (fun (label, certify, cached) ->
      with_cache_dir @@ fun dir ->
      let cache =
        if cached then Some (Svc.Cache.ops (Svc.Cache.open_ dir)) else None
      in
      let swept, st =
        Sweep.Engine.run
          ~config:
            {
              Sweep.Engine.fraig_config with
              Sweep.Engine.sat_domains = 2;
              conflict_limits = [ 1; 2 ];
              certify;
              cache;
            }
          net
      in
      check (label ^ ": function preserved") true (exhaustive_equal net swept);
      (match Sweep.Cec.check net swept with
      | Sweep.Cec.Equivalent -> ()
      | _ -> Alcotest.failf "%s: cube-split sweep not CEC-equivalent" label);
      check (label ^ ": hard candidates were cube-split") true
        (st.Sweep.Stats.cube_splits > 0);
      check (label ^ ": each split enumerated its cubes") true
        (st.Sweep.Stats.cube_queries >= 2 * st.Sweep.Stats.cube_splits);
      check_int (label ^ ": no certificate rejected") 0
        st.Sweep.Stats.certificate_rejected;
      check_report_roundtrip ("cube, " ^ label) st)
    [
      ("plain", false, false);
      ("certified", true, false);
      ("cached", false, true);
    ]

let test_dispatch_pool_counters () =
  (* The pool is the one place query outcomes and solver totals become
     [Stats], added in when its members join. Two independent meters
     must agree with what reaches the record: every query charges its
     conflicts and propagations to the sweep's budget, and without a
     conflict limit every UNSAT answer is one merge the windows did not
     make. A member dropped or added twice at the join breaks both. *)
  let arms =
    [
      ("stp", stp_config, false);
      ("certified stp", { stp_config with certify = true }, false);
      ("cached stp", stp_config, true);
      ("fraig [1; 2]", { fraig_config with conflict_limits = [ 1; 2 ] }, false);
    ]
  in
  List.iter
    (fun name ->
      let net = Gen.Suites.hwmcc_by_name name in
      List.iter
        (fun sat_domains ->
          List.iter
            (fun (arm, config, cached) ->
              with_cache_dir @@ fun dir ->
              let label =
                Printf.sprintf "%s, %s, %d domains" name arm sat_domains
              in
              let budget = Obs.Budget.create ~conflicts:1_000_000_000 () in
              let cache =
                if cached then Some (Svc.Cache.ops (Svc.Cache.open_ dir))
                else None
              in
              let _, st =
                Sweep.Engine.run
                  ~config:
                    {
                      config with
                      Sweep.Engine.sat_domains;
                      budget = Some budget;
                      cache;
                    }
                  net
              in
              let conflicts, propagations = Obs.Budget.consumed budget in
              check_int (label ^ ": conflicts charged") conflicts
                st.Sweep.Stats.sat_conflicts;
              check_int (label ^ ": propagations charged") propagations
                st.Sweep.Stats.sat_propagations;
              if config.Sweep.Engine.conflict_limits <> [] then
                check (label ^ ": cube-split") true
                  (st.Sweep.Stats.cube_splits > 0)
              else if not cached then
                check_int (label ^ ": one UNSAT per solver merge")
                  (st.Sweep.Stats.merges - st.Sweep.Stats.window_merges)
                  st.Sweep.Stats.sat_unsat)
            arms)
        [ 1; 2; 4 ])
    [ "b18"; "6s20" ]

let test_dispatch_budget_degrades () =
  (* Budget exhaustion with workers in flight: any domain may trip the
     shared budget; the sweep must still finish with only its proven
     merges and report why it stopped. *)
  let rng = Rng.create 0xB4D6E7L in
  let base = random_network rng ~pis:10 ~gates:8000 ~pos:8 in
  let net = Gen.Redundant.inject ~seed:13L ~fraction:0.3 base in
  let swept, st =
    Sweep.Stp_sweep.sweep
      ~config:{ stp_config with budget = budget ~timeout:0.01 (); sat_domains = 2 }
      net
  in
  (match st.Sweep.Stats.budget_exhausted with
  | Some _ -> ()
  | None -> Alcotest.fail "expected the budget to run out");
  check "function preserved" true (exhaustive_equal net swept);
  (match Sweep.Cec.check net swept with
  | Sweep.Cec.Equivalent -> ()
  | _ -> Alcotest.fail "degraded dispatch sweep not CEC-equivalent");
  (* And an already-expired deadline, which every worker sees sticky. *)
  let swept0, st0 =
    Sweep.Stp_sweep.sweep
      ~config:
        {
          stp_config with
          budget = budget ~deadline:(Obs.Clock.now () -. 1.) ();
          sat_domains = 2;
        }
      net
  in
  check "expired deadline preserved the function" true
    (exhaustive_equal net swept0);
  match st0.Sweep.Stats.budget_exhausted with
  | Some e ->
    check "reason is deadline" true (e.Sweep.Stats.reason = "deadline")
  | None -> Alcotest.fail "expired deadline not recorded"

(* At two domains scheduling decides which member's solver answers a
   query, and so the model a satisfiable one returns: [sat_sat],
   [ce_patterns] and the solver totals may differ from run to run. The
   bytes, and the counters the swept network decides, may not. *)
let test_dispatch_rerun_counters () =
  List.iter
    (fun name ->
      let net = Gen.Suites.hwmcc_by_name name in
      let sweep () =
        let r, st =
          Sweep.Stp_sweep.sweep ~config:{ stp_config with sat_domains = 2 } net
        in
        let open Sweep.Stats in
        ( Aig.Aiger.write r,
          [
            ("merges", st.merges);
            ("window_merges", st.window_merges);
            ("cut_merges", st.cut_merges);
            ("const_merges", st.const_merges);
            ("sat_unsat", st.sat_unsat);
          ] )
      in
      let bytes1, counters1 = sweep () in
      let bytes2, counters2 = sweep () in
      check (name ^ ": bytes repeat") true (bytes1 = bytes2);
      List.iter2
        (fun (k, a) (_, b) -> check_int (name ^ ": " ^ k ^ " repeats") a b)
        counters1 counters2)
    [ "b18"; "6s20" ]

let test_dispatch_hwmcc_bytes () =
  (* Waves end before a node whose fanin still awaits its verdict, so
     every node is translated through its fanins' final literals: the
     swept bytes must depend neither on the pool size nor on the query
     strategy (a cached sweep settles on the same merges), and the
     result must keep almost no redundancy for a second sweep to
     find. *)
  List.iter
    (fun name ->
      let net = Gen.Suites.hwmcc_by_name name in
      let sweep ?cache d =
        Sweep.Stp_sweep.sweep
          ~config:
            {
              stp_config with
              sat_domains = d;
              cache = Option.map Svc.Cache.ops cache;
            }
          net
      in
      let r1, _ = sweep 1 in
      let text1 = Aig.Aiger.write r1 in
      List.iter
        (fun d ->
          if Aig.Aiger.write (fst (sweep d)) <> text1 then
            Alcotest.failf "%s: %d domains wrote different bytes than 1" name
              d)
        [ 2; 4 ];
      (* Cold cached sweeps, each on a fresh cache; then a 1-domain warm
         sweep over the 2-domain cache asks only what was stored. *)
      List.iter
        (fun d ->
          with_cache_dir @@ fun dir ->
          let c = Svc.Cache.open_ dir in
          if Aig.Aiger.write (fst (sweep ~cache:c d)) <> text1 then
            Alcotest.failf
              "%s: a cold cached sweep on %d domains wrote different bytes \
               than the uncached one"
              name d;
          if d = 2 then begin
            let warm, st = sweep ~cache:c 1 in
            check (name ^ ": warm bytes") true (Aig.Aiger.write warm = text1);
            check_int (name ^ ": warm misses") 0 st.Sweep.Stats.cache_misses;
            check_int (name ^ ": warm rejected") 0
              st.Sweep.Stats.cache_rejected
          end)
        [ 2; 4 ];
      let _, st2 = Sweep.Stp_sweep.sweep r1 in
      if 100 * st2.Sweep.Stats.merges >= A.num_ands r1 then
        Alcotest.failf "%s: a second sweep merged %d of %d ANDs" name
          st2.Sweep.Stats.merges (A.num_ands r1))
    [ "b18"; "b19" ]

let test_guided_consts_recorded () =
  (* Constants proven during guided initialization must surface in the
     stats and the JSON report instead of being silently discarded. *)
  let net = A.create () in
  let a = A.add_pi net and b = A.add_pi net in
  let x = A.add_xor net a b in
  let y = A.add_xor net a (L.not_ b) in
  ignore (A.add_po net (A.add_or net x y));
  ignore (A.add_po net (A.add_and net x y));
  let _, st = Sweep.Stp_sweep.sweep net in
  check "guided consts recorded" true (st.Sweep.Stats.guided_consts > 0);
  let counters =
    match Obs.Json.member "counters" (Sweep.Stats.to_json st) with
    | Some (Obs.Json.Obj _ as o) -> o
    | _ -> Alcotest.fail "no counters object in the report"
  in
  List.iter
    (fun k ->
      match Obs.Json.member k counters with
      | Some (Obs.Json.Int _) -> ()
      | _ -> Alcotest.failf "%s missing from the JSON report" k)
    [
      "guided_consts"; "guided_sat_calls"; "guided_patterns"; "cube_splits";
      "cube_queries";
    ]

(* ---- budgets, degradation, faults ---- *)

let with_faults spec f =
  (match Obs.Fault.configure spec with
   | Ok () -> ()
   | Error e -> Alcotest.failf "bad fault spec %S: %s" spec e);
  Fun.protect ~finally:Obs.Fault.reset f

let test_deadline_degrades () =
  (* An already-expired deadline: the engine must still return, keep the
     function intact (only proven merges — here, structural hashing),
     and record why it stopped, both in the stats and in the report. *)
  let rng = Rng.create 911L in
  let base = random_network rng ~pis:8 ~gates:300 ~pos:5 in
  let net = Gen.Redundant.inject ~seed:4L ~fraction:0.4 base in
  let swept, st =
    Sweep.Stp_sweep.sweep
      ~config:{ stp_config with budget = budget ~deadline:(Obs.Clock.now () -. 1.) () }
      net
  in
  check "function preserved" true (exhaustive_equal net swept);
  (match Sweep.Cec.check net swept with
   | Sweep.Cec.Equivalent -> ()
   | _ -> Alcotest.fail "degraded sweep not CEC-equivalent");
  check "not larger" true (A.num_ands swept <= A.num_ands net);
  (match st.Sweep.Stats.budget_exhausted with
   | Some e ->
     check "reason is deadline" true (e.Sweep.Stats.reason = "deadline");
     check "phase recorded" true
       (List.mem e.Sweep.Stats.phase [ "guided"; "sweep"; "sat" ])
   | None -> Alcotest.fail "budget_exhausted not recorded");
  check_report_roundtrip "deadline" st;
  match Obs.Json.member "budget_exhausted" (Sweep.Stats.to_json st) with
  | Some (Obs.Json.Obj kvs) ->
    check "json reason" true
      (List.assoc_opt "reason" kvs = Some (Obs.Json.String "deadline"));
    check "json phase present" true (List.mem_assoc "phase" kvs)
  | _ -> Alcotest.fail "budget_exhausted missing from the JSON report"

let test_timeout_partial () =
  (* A tiny but non-zero budget on a sizeable circuit: the sweep must cut
     itself short mid-flight and the partial result — only the merges
     proven before exhaustion — must still be a correct network. *)
  let rng = Rng.create 31337L in
  let base = random_network rng ~pis:10 ~gates:8000 ~pos:8 in
  let net = Gen.Redundant.inject ~seed:13L ~fraction:0.3 base in
  let swept, st =
    Sweep.Stp_sweep.sweep
      ~config:{ stp_config with budget = budget ~timeout:0.01 () }
      net
  in
  (match st.Sweep.Stats.budget_exhausted with
   | Some _ -> ()
   | None -> Alcotest.fail "expected the budget to run out");
  check "function preserved" true (exhaustive_equal net swept);
  match Sweep.Cec.check net swept with
  | Sweep.Cec.Equivalent -> ()
  | _ -> Alcotest.fail "partial sweep not CEC-equivalent"

let test_retry_schedule () =
  (* Escalating conflict limits must recover pairs a starved first
     attempt leaves undetermined, and the retries must be counted. *)
  let rng = Rng.create 1618L in
  let base = random_network rng ~pis:8 ~gates:120 ~pos:6 in
  let net = Gen.Redundant.inject ~seed:9L ~fraction:0.5 base in
  let _, st0 =
    Sweep.Stp_sweep.sweep ~config:{ stp_config with conflict_limits = [ 1 ] } net
  in
  let swept, st =
    Sweep.Stp_sweep.sweep
      ~config:{ stp_config with conflict_limits = [ 1; 100; 100_000 ] }
      net
  in
  check "function preserved" true (exhaustive_equal net swept);
  check "no retries without a schedule" true (st0.Sweep.Stats.sat_retries = 0);
  if st0.Sweep.Stats.sat_undet > 0 then begin
    check "retries counted" true (st.Sweep.Stats.sat_retries > 0);
    check "retries resolve undetermined pairs" true
      (st.Sweep.Stats.sat_undet <= st0.Sweep.Stats.sat_undet)
  end

let test_self_verify () =
  (* The opt-in verification path must accept a correct sweep. *)
  let rng = Rng.create 123321L in
  let base = random_network rng ~pis:7 ~gates:60 ~pos:4 in
  let net = Gen.Redundant.inject ~seed:2L ~fraction:0.5 base in
  let swept, _ =
    Sweep.Stp_sweep.sweep ~config:{ stp_config with verify = true } net
  in
  check "verified sweep not larger" true (A.num_ands swept <= A.num_ands net);
  check "function preserved" true (exhaustive_equal net swept)

let test_fault_matrix () =
  (* Every sweep-path fault site × several seeds: the sweep must not
     crash, must never let an unproven merge through, and the output must
     stay equivalent. The verdicts run with faults disarmed so the check
     itself is not subject to injection. *)
  let sites = [ "sweep.drop_ce"; "sweep.fail_window"; "sat.force_unknown" ] in
  let rng = Rng.create 600613L in
  (* Starved initial patterns (one word over 10 PIs) leave aliased
     signatures, so the engines actually reach SAT counterexamples and
     window checks — the opportunities the faults need. *)
  let base = random_network rng ~pis:10 ~gates:200 ~pos:6 in
  let net = Gen.Redundant.inject ~seed:11L ~fraction:0.5 base in
  List.iter
    (fun site_name ->
      let site = Obs.Fault.register site_name in
      let fired = ref 0 in
      for seed = 1 to 5 do
        (* Both engines: fraig answers distinctions with SAT
           counterexamples (drop_ce opportunities), stp routes them
           through windows (fail_window opportunities). *)
        List.iter
          (fun (engine, sweeper) ->
            let swept =
              with_faults
                (Printf.sprintf "seed=%d,%s:0.5" seed site_name)
                (fun () ->
                  let swept, _ = sweeper net in
                  fired := !fired + Obs.Fault.hits site;
                  swept)
            in
            if not (exhaustive_equal net swept) then
              Alcotest.failf "%s/%s seed %d: function changed" site_name
                engine seed;
            match Sweep.Cec.check net swept with
            | Sweep.Cec.Equivalent -> ()
            | _ -> Alcotest.failf "%s/%s seed %d: CEC failed" site_name engine seed)
          [
            ( "fraig",
              Sweep.Fraig.sweep ~config:{ fraig_config with initial_words = 1 }
            );
            ( "stp",
              Sweep.Stp_sweep.sweep ~config:{ stp_config with initial_words = 1 }
            );
          ]
      done;
      if !fired = 0 then
        Alcotest.failf "%s never struck across the seed matrix" site_name)
    sites

let test_certified_sweep () =
  (* Certified mode on an honest run: every UNSAT merge carries a
     replayed proof, every counterexample validates, nothing is
     rejected, and the counters surface in the JSON report. *)
  let rng = Rng.create 0xCE47L in
  let base = random_network rng ~pis:8 ~gates:120 ~pos:6 in
  let net = Gen.Redundant.inject ~seed:21L ~fraction:0.5 base in
  List.iter
    (fun (label, sweeper) ->
      let swept, st = sweeper net in
      let open Sweep.Stats in
      if not (exhaustive_equal net swept) then
        Alcotest.failf "%s: certified sweep changed the function" label;
      check_int (label ^ ": nothing rejected") 0 st.certificate_rejected;
      check_int (label ^ ": every unsat certified") st.sat_unsat
        st.certified_unsat;
      check_int (label ^ ": every model certified") st.sat_sat
        st.certified_models;
      check_report_roundtrip (label ^ " certified") st;
      let counters =
        match Obs.Json.member "counters" (to_json st) with
        | Some (Obs.Json.Obj _ as o) -> o
        | _ -> Alcotest.failf "%s: no counters object in the report" label
      in
      List.iter
        (fun k ->
          match Obs.Json.member k counters with
          | Some (Obs.Json.Int _) -> ()
          | _ -> Alcotest.failf "%s: %s missing from the JSON report" label k)
        [ "certified_unsat"; "certified_models"; "certificate_rejected" ])
    [
      ( "fraig",
        Sweep.Fraig.sweep
          ~config:{ fraig_config with certify = true; initial_words = 1 } );
      ( "stp",
        Sweep.Stp_sweep.sweep
          ~config:{ stp_config with certify = true; initial_words = 1 } );
    ]

let test_lying_solver_matrix () =
  (* The adversarial sites × seeds × engines: a lying solver must never
     get a wrong merge committed in certified mode. Every run's output
     must stay equivalent (also re-judged by the engine's own
     self-check), and across the matrix at least one lie must actually
     fire and be rejected. *)
  let sites = [ "sat.flip_unsat"; "sat.corrupt_proof"; "sat.bogus_model" ] in
  let rng = Rng.create 0x11E5L in
  let base = random_network rng ~pis:10 ~gates:150 ~pos:6 in
  let net = Gen.Redundant.inject ~seed:17L ~fraction:0.5 base in
  List.iter
    (fun site_name ->
      let site = Obs.Fault.register site_name in
      let fired = ref 0 and rejected = ref 0 in
      for seed = 1 to 5 do
        List.iter
          (fun (engine, sweeper) ->
            let swept =
              with_faults
                (Printf.sprintf "seed=%d,%s:0.4" seed site_name)
                (fun () ->
                  let swept, st = sweeper net in
                  fired := !fired + Obs.Fault.hits site;
                  rejected :=
                    !rejected + st.Sweep.Stats.certificate_rejected;
                  swept)
            in
            if not (exhaustive_equal net swept) then
              Alcotest.failf "%s/%s seed %d: a lie was committed" site_name
                engine seed;
            match Sweep.Cec.check net swept with
            | Sweep.Cec.Equivalent -> ()
            | _ ->
              Alcotest.failf "%s/%s seed %d: CEC failed" site_name engine seed)
          [
            ( "fraig",
              Sweep.Fraig.sweep
                ~config:
                  {
                    fraig_config with
                    certify = true;
                    verify = true;
                    initial_words = 1;
                  } );
            ( "stp",
              Sweep.Stp_sweep.sweep
                ~config:
                  {
                    stp_config with
                    certify = true;
                    verify = true;
                    initial_words = 1;
                  } );
          ]
      done;
      if !fired = 0 then
        Alcotest.failf "%s never struck across the seed matrix" site_name;
      if !rejected = 0 then
        Alcotest.failf "%s fired %d times but no certificate was rejected"
          site_name !fired)
    sites

let test_parse_truncate_fault () =
  (* The parser-input fault: a truncated document must surface as
     Parse_error (or still parse, when the cut lands after the payload) —
     never any other exception. *)
  let rng = Rng.create 271828L in
  let net = random_network rng ~pis:6 ~gates:40 ~pos:3 in
  let text = Aig.Aiger.write net in
  let saw_error = ref false in
  for seed = 1 to 10 do
    with_faults
      (Printf.sprintf "seed=%d,parse.truncate" seed)
      (fun () ->
        match Aig.Aiger.read text with
        | _ -> ()
        | exception Aig.Aiger.Parse_error _ -> saw_error := true)
  done;
  check "truncation surfaced as Parse_error" true !saw_error

let test_fault_catalog_complete () =
  (* Linking the sweep stack must register the documented site catalog. *)
  let cat = Obs.Fault.catalog () in
  List.iter
    (fun site ->
      if not (List.mem site cat) then
        Alcotest.failf "site %s not in the catalog" site)
    [
      "parse.truncate";
      "sat.force_unknown";
      "sweep.drop_ce";
      "sweep.fail_window";
      "sat.flip_unsat";
      "sat.corrupt_proof";
      "sat.bogus_model";
      "cache.corrupt_entry";
      "cache.torn_write";
      (* svc.drop_conn registers at Svc.Server init, which this binary does
         not link; test_svc asserts it instead. *)
    ]

(* ---- the equivalence cache (Svc.Cache wired into the engine) ---- *)

let iter_cache_files dir f =
  Array.iter
    (fun sub ->
      let p = Filename.concat dir sub in
      if Sys.is_directory p then
        Array.iter
          (fun fn ->
            if Filename.check_suffix fn ".json" then f (Filename.concat p fn))
          (Sys.readdir p))
    (Sys.readdir dir)

(* The cache tests' sweep: one initial word and 4-leaf windows leave
   plenty of pairs for the solver, and so for the cache. *)
let cache_config ?(certify = false) ?(cache_paranoid = false)
    ?(sat_domains = 1) c =
  {
    stp_config with
    initial_words = 1;
    window_max_leaves = 4;
    certify;
    cache = Some (Svc.Cache.ops c);
    cache_paranoid;
    sat_domains;
  }

let cache_sat_calls st =
  st.Sweep.Stats.sat_sat + st.Sweep.Stats.sat_unsat + st.Sweep.Stats.sat_undet

let test_cache_cold_warm () =
  (* The headline soundness property: a warm-cache sweep must replay the
     cold run's trajectory exactly — same merges, same result size, CEC
     equivalent — while answering every solver query from disk. *)
  List.iter
    (fun (label, certify, sat_domains) ->
      with_cache_dir @@ fun dir ->
      let rng = Rng.create 0xCAC4EDL in
      let base = random_network rng ~pis:8 ~gates:150 ~pos:5 in
      let net = Gen.Redundant.inject ~seed:(Rng.int64 rng) ~fraction:0.5 base in
      let c = Svc.Cache.open_ dir in
      let sweep () =
        Sweep.Stp_sweep.sweep ~config:(cache_config ~certify ~sat_domains c) net
      in
      let cold, stc = sweep () in
      let warm, stw = sweep () in
      check (label ^ ": cold function preserved") true
        (exhaustive_equal net cold);
      check (label ^ ": warm function preserved") true
        (exhaustive_equal net warm);
      (match Sweep.Cec.check net warm with
      | Sweep.Cec.Equivalent -> ()
      | _ -> Alcotest.failf "%s: warm sweep not CEC-equivalent" label);
      check (label ^ ": cold run misses") true
        (stc.Sweep.Stats.cache_hits = 0 && stc.Sweep.Stats.cache_misses > 0);
      check (label ^ ": warm run only hits") true
        (stw.Sweep.Stats.cache_misses = 0 && stw.Sweep.Stats.cache_hits > 0);
      check_int (label ^ ": merges identical") stc.Sweep.Stats.merges
        stw.Sweep.Stats.merges;
      check_int (label ^ ": sizes identical") (A.num_ands cold)
        (A.num_ands warm);
      check_int (label ^ ": warm run never solves") 0 (cache_sat_calls stw);
      check_int (label ^ ": nothing rejected") 0 stw.Sweep.Stats.cache_rejected)
    [
      ("plain", false, 1);
      ("certified", true, 1);
      ("certified, 2 domains", true, 2);
    ]

let test_cache_conflict_limit_zero () =
  (* A conflict limit of 0 is a limit, cached or not: the solver pool
     gives up at the first conflict, and so must the cache path's
     throwaway solver — not treat 0 as "unlimited" and prove pairs the
     uncached sweep leaves undetermined. *)
  let net = Gen.Suites.hwmcc_by_name "b18" in
  let config = { stp_config with conflict_limits = [ 0 ] } in
  let plain, _ = Sweep.Stp_sweep.sweep ~config net in
  with_cache_dir @@ fun dir ->
  let c = Svc.Cache.open_ dir in
  let cached, _ =
    Sweep.Stp_sweep.sweep
      ~config:{ config with cache = Some (Svc.Cache.ops c) }
      net
  in
  check_int "cached sweep keeps the uncached size" (A.num_ands plain)
    (A.num_ands cached);
  check "cached sweep writes the uncached bytes" true
    (Aig.Aiger.write plain = Aig.Aiger.write cached)

let test_cache_fault_matrix () =
  (* Corrupt-entry and torn-write faults strike the bytes on the way to
     disk; the next run must quarantine exactly those entries, count
     them as rejected, re-prove them, and still land on the cold run's
     merges — an unproven merge must never come out of the cache. On
     two domains the pool members find and store concurrently. *)
  let rng = Rng.create 0xFA17CAL in
  let base = random_network rng ~pis:9 ~gates:180 ~pos:5 in
  let net = Gen.Redundant.inject ~seed:17L ~fraction:0.5 base in
  List.iter
    (fun (site_name, sat_domains) ->
      let site = Obs.Fault.register site_name in
      let fired = ref 0 and rejected = ref 0 in
      for seed = 1 to 5 do
        with_cache_dir @@ fun dir ->
        let c = Svc.Cache.open_ dir in
        let sweep () =
          Sweep.Stp_sweep.sweep ~config:(cache_config ~sat_domains c) net
        in
        let label what =
          Printf.sprintf "%s, %d domains, seed %d: %s" site_name sat_domains
            seed what
        in
        let cold, stc =
          with_faults
            (Printf.sprintf "seed=%d,%s:0.5" seed site_name)
            (fun () ->
              let r = sweep () in
              fired := !fired + Obs.Fault.hits site;
              r)
        in
        (* Faults disarmed: whatever reached disk is now read back. *)
        let warm, stw = sweep () in
        check (label "cold function preserved") true (exhaustive_equal net cold);
        check (label "warm function preserved") true (exhaustive_equal net warm);
        (match Sweep.Cec.check net warm with
        | Sweep.Cec.Equivalent -> ()
        | _ -> Alcotest.fail (label "warm CEC failed"));
        check_int (label "merges identical") stc.Sweep.Stats.merges
          stw.Sweep.Stats.merges;
        (* Layering: every damaged entry the warm run touched was
           quarantined by the cache and counted rejected by the engine. *)
        check_int (label "rejected = quarantined")
          (Svc.Cache.counters c).Svc.Cache.c_quarantined
          stw.Sweep.Stats.cache_rejected;
        rejected := !rejected + stw.Sweep.Stats.cache_rejected
      done;
      if !fired = 0 then
        Alcotest.failf "%s never struck across the seed matrix" site_name;
      if !rejected = 0 then
        Alcotest.failf "%s: no damaged entry was ever rejected" site_name)
    (List.concat_map
       (fun site -> [ (site, 1); (site, 2) ])
       [ "cache.corrupt_entry"; "cache.torn_write" ])

(* Rewrite every stored equivalence entry so that its proof is [proof],
   keeping it structurally valid: right key, recomputed checksum. *)
let forge_equiv_entries dir proof =
  let forged = ref 0 in
  iter_cache_files dir (fun path ->
      let raw = In_channel.with_open_bin path In_channel.input_all in
      match Obs.Json.parse raw with
      | payload -> (
        match
          (Obs.Json.member "key" payload, Obs.Json.member "entry" payload)
        with
        | Some (Obs.Json.String key), Some entry
          when Obs.Json.member "verdict" entry
               = Some (Obs.Json.String "equiv") ->
          let open Obs.Json in
          let entry' =
            Obj
              [
                ("v", Int 1);
                ("verdict", String "equiv");
                ( "proof",
                  List
                    (List.map
                       (fun c -> List (List.map (fun l -> Int l) c))
                       proof) );
              ]
          in
          let sum = Digest.to_hex (Digest.string (to_string entry')) in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc
                (to_string
                   (Obj
                      [
                        ("key", String key);
                        ("checksum", String sum);
                        ("entry", entry');
                      ])));
          incr forged
        | _ -> ())
      | exception Obs.Json.Parse_error _ -> ());
  !forged

(* A certified cold sweep fills the cache, every equivalence entry is
   forged to carry [proof], and a paranoid warm sweep must reject the
   forgeries at the proof, re-prove them, and keep the function. *)
let check_paranoid_rejects_forgery proof =
  with_cache_dir @@ fun dir ->
  let rng = Rng.create 0x7A3BE2L in
  let base = random_network rng ~pis:8 ~gates:120 ~pos:4 in
  let net = Gen.Redundant.inject ~seed:5L ~fraction:0.5 base in
  let c = Svc.Cache.open_ dir in
  let _, stc =
    Sweep.Stp_sweep.sweep ~config:(cache_config ~certify:true c) net
  in
  check "some equivalence entries were forged" true
    (forge_equiv_entries dir proof > 0);
  let warm, stw =
    Sweep.Stp_sweep.sweep
      ~config:(cache_config ~certify:true ~cache_paranoid:true c)
      net
  in
  check "function preserved despite forged cache" true
    (exhaustive_equal net warm);
  (match Sweep.Cec.check net warm with
  | Sweep.Cec.Equivalent -> ()
  | _ -> Alcotest.fail "paranoid warm sweep not CEC-equivalent");
  check "forged certificates rejected on replay" true
    (stw.Sweep.Stats.cache_rejected > 0);
  check_int "merges identical (rejects re-proven)" stc.Sweep.Stats.merges
    stw.Sweep.Stats.merges;
  (* The forgery is structurally pristine: the cache layer itself must
     not have quarantined anything — rejection happened at the proof. *)
  check_int "no quarantines for a structurally valid forgery" 0
    (Svc.Cache.counters c).Svc.Cache.c_quarantined

let test_cache_paranoid_tamper () =
  (* Forged entries with valid structure and a gutted proof. Structural
     integrity alone must not be enough under --paranoid — the replayed
     certificate is the trust anchor. *)
  check_paranoid_rejects_forgery []

let test_cache_paranoid_huge_literal () =
  (* A stored literal far beyond the cone's encoding must be refused
     before the checker sizes its per-variable arrays by it: 2^40 would
     raise Out_of_memory out of the sweep, 2,000,000 would cost the
     growth for every hit. *)
  check_paranoid_rejects_forgery [ [ 1 lsl 40 ] ];
  check_paranoid_rejects_forgery [ [ 2_000_000 ] ]

let test_cache_crash_recovery () =
  (* The kill -9 contract at unit level: a committed-but-torn entry
     (rename raced the tear) is quarantined on first read, a plain miss
     afterwards, and the slot is re-storable; an uncommitted temp file
     is swept by the next open_. *)
  with_cache_dir @@ fun dir ->
  let key = String.make 32 'a' in
  let entry =
    Obs.Json.Obj [ ("v", Obs.Json.Int 1); ("verdict", Obs.Json.String "diff") ]
  in
  let c = Svc.Cache.open_ dir in
  with_faults "seed=1,cache.torn_write" (fun () ->
      Svc.Cache.store c ~key entry);
  (* restart *)
  let c2 = Svc.Cache.open_ dir in
  (match Svc.Cache.find c2 ~key with
  | Sweep.Engine.Cache_corrupt -> ()
  | _ -> Alcotest.fail "torn entry served instead of quarantined");
  (match Svc.Cache.find c2 ~key with
  | Sweep.Engine.Cache_miss -> ()
  | _ -> Alcotest.fail "quarantined entry not degraded to a miss");
  let sub = Filename.concat dir (String.sub key 0 2) in
  check "quarantine file preserved for post-mortem" true
    (Sys.file_exists (Filename.concat sub (key ^ ".json.quarantined")));
  Svc.Cache.store c2 ~key entry;
  (match Svc.Cache.find c2 ~key with
  | Sweep.Engine.Cache_hit e -> check "entry round-trips" true (e = entry)
  | _ -> Alcotest.fail "re-stored entry not served");
  (* A temp file is a write that never committed: swept on open_. *)
  let tmp = Filename.concat sub ".tmp.99999.0" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc "x");
  let _ = Svc.Cache.open_ dir in
  check "stale temp swept on restart" false (Sys.file_exists tmp);
  (* Hostile keys stay inside the cache directory. *)
  (match Svc.Cache.find c2 ~key:"../../escape" with
  | Sweep.Engine.Cache_miss -> ()
  | _ -> Alcotest.fail "traversal key must be a miss");
  Svc.Cache.store c2 ~key:"../../escape" entry;
  check "traversal key stored nothing" false
    (Sys.file_exists (Filename.concat (Filename.dirname dir) "escape"))

(* ---- Cone_cert: cache keys and the canonical encoding ----

   Cache keys and stored certificates outlive the code that wrote them,
   so the extraction and the encoding are pinned here: a golden key, a
   reference extraction, and the replay of every certificate [solve]
   produces. *)

module Cc = Sweep.Cone_cert

(* The whole-network extraction the v1 keys were defined with, kept as
   the reference the cone-local [Cone_cert.extract] must reproduce:
   returns the key, the leaves and the two roots. *)
let reference_extract net a b =
  let cone = Aig.Cone.tfi net [ L.node a; L.node b ] in
  let pc_net = A.create () in
  let map = Array.make (A.num_nodes net) L.false_ in
  let leaves = ref [] in
  List.iter
    (fun n ->
      match A.kind net n with
      | A.Const -> ()
      | A.Pi i ->
        map.(n) <- A.add_pi pc_net;
        leaves := i :: !leaves
      | A.And ->
        let tr f = L.xor_compl map.(L.node f) (L.is_compl f) in
        map.(n) <- A.add_and pc_net (tr (A.fanin0 net n)) (tr (A.fanin1 net n)))
    cone;
  let tr l = L.xor_compl map.(L.node l) (L.is_compl l) in
  let pc_a = tr a and pc_b = tr b in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "v1 pi=%d;" (A.num_pis pc_net));
  A.iter_ands pc_net (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d;" (A.fanin0 pc_net n) (A.fanin1 pc_net n)));
  Buffer.add_string buf (Printf.sprintf "r=%d,%d" pc_a pc_b);
  ( Digest.to_hex (Digest.string (Buffer.contents buf)),
    Array.of_list (List.rev !leaves),
    pc_a,
    pc_b )

(* An unused PI z, then x and y; two XORs of x and y built differently,
   each node created in the order listed. *)
let xor_pair () =
  let net = A.create () in
  let _z = A.add_pi net in
  let x = A.add_pi net in
  let y = A.add_pi net in
  let and_ = A.add_and net and not_ = L.not_ in
  let x_ny = and_ x (not_ y) in
  let nx_y = and_ (not_ x) y in
  let xor1 = not_ (and_ (not_ x_ny) (not_ nx_y)) in
  let x_y = and_ x y in
  let nx_ny = and_ (not_ x) (not_ y) in
  let xor2 = and_ (not_ nx_ny) (not_ x_y) in
  (net, xor1, xor2)

let test_cone_cert_golden () =
  let net, xor1, xor2 = xor_pair () in
  let pc = Cc.extract net xor1 xor2 in
  Alcotest.(check string) "key" "c1f36882d08e8fa2f47ccfa925b66982" pc.Cc.pc_key;
  Alcotest.(check (array int)) "leaves" [| 1; 2 |] pc.Cc.pc_leaves;
  check_int "first root" 11 pc.Cc.pc_a;
  check_int "second root" 16 pc.Cc.pc_b;
  let pcc = Cc.extract net xor1 (L.not_ xor2) in
  Alcotest.(check string) "complemented pair's key"
    "830b683c3687ee13abd34ea48e57ac8a" pcc.Cc.pc_key;
  (* 6 ANDs, 2 PIs, the miter output and the selector; 3 clauses per
     AND and 5 for the miter, the selector clause last. *)
  let clauses = ref [] in
  let count, var = Cc.encode pc (fun c -> clauses := c :: !clauses) in
  check_int "variables" 10 count;
  check_int "clauses" 23 (List.length !clauses);
  Alcotest.(check (list int)) "selector clause" [ 19; 16 ] (List.hd !clauses);
  check "every PI numbered" true
    (List.for_all (fun i -> var.(A.pi_node pc.Cc.pc_net i) >= 0) [ 0; 1 ]);
  match Cc.solve ~certify:true pc with
  | Cc.O_equiv proof, _ ->
    check_int "proof clauses" 4 (List.length proof);
    check "proof replays" true (Cc.replay pc proof = Ok ());
    check "proof rejected on the complemented pair" true
      (Result.is_error (Cc.replay pcc proof))
  | _ -> Alcotest.fail "XOR pair not proven equivalent"

(* Truth table of every node over all PI assignments. *)
let node_tables net =
  let rows = 1 lsl A.num_pis net in
  let tt = Array.make_matrix (A.num_nodes net) rows false in
  for r = 0 to rows - 1 do
    A.iter_nodes net (fun n ->
        match A.kind net n with
        | A.Const -> ()
        | A.Pi i -> tt.(n).(r) <- (r lsr i) land 1 = 1
        | A.And ->
          let f l = tt.(L.node l).(r) <> L.is_compl l in
          tt.(n).(r) <- f (A.fanin0 net n) && f (A.fanin1 net n))
  done;
  tt

(* Random pairs and pairs of equal functions, on random networks with
   injected redundancy: [extract] must match the reference, an [O_equiv]
   must replay and be a real equivalence, an [O_diff] witness must
   distinguish the pair. *)
let prop_cone_cert seed =
  let rng = Rng.create seed in
  let base =
    random_network rng ~pis:(3 + Rng.int rng 5) ~gates:(20 + Rng.int rng 60)
      ~pos:3
  in
  let net = Gen.Redundant.inject ~seed ~fraction:0.5 base in
  let tt = node_tables net in
  let value l r = tt.(L.node l).(r) <> L.is_compl l in
  let nn = A.num_nodes net in
  let lit () = L.of_node (Rng.int rng nn) (Rng.bool rng) in
  let equal = ref [] in
  for i = 1 to nn - 1 do
    for j = i + 1 to nn - 1 do
      if tt.(i) = tt.(j) then
        equal := (L.of_node i false, L.of_node j false) :: !equal
    done
  done;
  let pairs =
    List.filteri (fun k _ -> k < 30) !equal
    @ List.init 30 (fun _ -> (lit (), lit ()))
  in
  List.for_all
    (fun (a, b) ->
      let pc = Cc.extract net a b in
      (pc.Cc.pc_key, pc.Cc.pc_leaves, pc.Cc.pc_a, pc.Cc.pc_b)
      = reference_extract net a b
      &&
      let rows = Array.length tt.(0) in
      match Cc.solve ~certify:true pc with
      | Cc.O_equiv proof, _ ->
        Cc.replay pc proof = Ok ()
        && List.for_all (fun r -> value a r = value b r) (List.init rows Fun.id)
      | Cc.O_diff small, _ ->
        let r = ref 0 in
        Array.iteri
          (fun k v -> if v then r := !r lor (1 lsl pc.Cc.pc_leaves.(k)))
          small;
        value a !r <> value b !r
      | _ -> false)
    pairs

(* ---- cut-frontier windows ---- *)

module Cw = Sweep.Cut_window

(* Every decisive verdict of the cut tier, on every node pair of random
   redundant networks, against the exhaustive all-PI truth tables — an
   oracle that shares nothing with the SAT or DRUP stack. Each proof
   must replay for the verdict's relation and be rejected for the
   flipped one. *)
let prop_cut_window seed =
  let rng = Rng.create seed in
  let base =
    random_network rng ~pis:(2 + Rng.int rng 11) ~gates:(20 + Rng.int rng 60)
      ~pos:3
  in
  let net = Gen.Redundant.inject ~seed ~fraction:0.5 base in
  let tt = node_tables net in
  let cw = Cw.create () in
  let ok = ref true in
  A.iter_ands net (fun a ->
      for b = 0 to a - 1 do
        match Cw.verdict cw net a b with
        | `Unknown -> ()
        | (`Equal | `Compl) as v ->
          let compl = v = `Compl in
          let agrees =
            Array.for_all2 (fun x y -> x = (y <> compl)) tt.(a) tt.(b)
          in
          if
            not
              (agrees
              && Cw.prove cw net a b ~compl = Ok ()
              && Result.is_error (Cw.prove cw net a b ~compl:(not compl)))
          then ok := false
      done);
  !ok

let test_cut_window_flipped_proof () =
  (* XOR of two PIs against an XNOR built from different ANDs: the two
     nodes are complementary over a two-leaf cut, so claiming them equal
     must fail on the checker. [~skew] builds the same node ids with the
     XNOR's second fanin uncomplemented (that node is then [!x & y]). *)
  let build ~skew =
    let net = A.create () in
    let x = A.add_pi net and y = A.add_pi net in
    let xor_ = A.add_xor net x y in
    let right = A.add_and net (L.not_ x) y in
    let xnor =
      A.add_and net
        (L.not_ (A.add_and net x (L.not_ y)))
        (if skew then right else L.not_ right)
    in
    (net, x, y, xor_, xnor)
  in
  let net, x, y, xor_, xnor = build ~skew:false in
  (* The literals are complementary functions; the nodes are too when
     both literals carry the same polarity. *)
  check "nodes are complementary" true (L.is_compl xor_ = L.is_compl xnor);
  let cw = Cw.create () in
  let a = L.node xnor and b = L.node xor_ in
  match Cw.verdict cw net a b with
  | `Compl ->
    check "the complement relation replays" true
      (Cw.prove cw net a b ~compl:true = Ok ());
    check "claiming equality is rejected" true
      (Result.is_error (Cw.prove cw net a b ~compl:false));
    (* The axioms come from the network and the pair, not from the kept
       cut: the same cut certifies neither a pair it does not decide nor
       the same node ids in a network where they differ. *)
    let other = L.node (A.add_and net x y) in
    check "another pair over the same cut is rejected" true
      (Result.is_error (Cw.prove cw net a other ~compl:true)
      && Result.is_error (Cw.prove cw net a other ~compl:false));
    let skewed, _, _, xor', xnor' = build ~skew:true in
    check "same node ids" true (L.node xor' = b && L.node xnor' = a);
    check "a network the cut does not match is rejected" true
      (Result.is_error (Cw.prove cw skewed a b ~compl:true)
      && Result.is_error (Cw.prove cw skewed a b ~compl:false))
  | `Equal -> Alcotest.fail "complementary nodes judged equal"
  | `Unknown -> Alcotest.fail "two-leaf XOR/XNOR pair not decided"

let fsm () =
  Gen.Redundant.inject ~seed:5L ~fraction:0.25
    (Gen.Control.fsm_next_state ~seed:0xF5A1L ~state_bits:16 ~input_bits:12
       ~complexity:20)

let test_cut_window_fault_off () =
  (* [sweep.fail_window] at probability 1 switches both tiers off: no
     window merge at all, and the solver proves the same network. *)
  let net = fsm () in
  let plain, st = Sweep.Stp_sweep.sweep net in
  let faulted, st_f =
    with_faults "seed=1,sweep.fail_window" (fun () -> Sweep.Stp_sweep.sweep net)
  in
  check "windows merged without the fault" true
    (st.Sweep.Stats.window_merges > 0);
  check_int "no window merge under the fault" 0
    st_f.Sweep.Stats.window_merges;
  check_int "no cut merge under the fault" 0 st_f.Sweep.Stats.cut_merges;
  check "same bytes as the sweep without the fault" true
    (Aig.Aiger.write plain = Aig.Aiger.write faulted)

let test_cut_merges_counted () =
  let _, st = Sweep.Stp_sweep.sweep (fsm ()) in
  let open Sweep.Stats in
  check "cut merges happen" true (st.cut_merges > 0);
  check "cut merges within window merges" true
    (st.cut_merges <= st.window_merges);
  check_report_roundtrip "cut" st;
  match Obs.Json.member "counters" (to_json st) with
  | Some counters ->
    check "cut_merges in the report" true
      (Obs.Json.member "cut_merges" counters = Some (Obs.Json.Int st.cut_merges))
  | None -> Alcotest.fail "no counters object in the report"

let () =
  Alcotest.run "sweep"
    [
      ( "pieces",
        [
          Alcotest.test_case "equiv classes" `Quick test_equiv_classes;
          Alcotest.test_case "cec" `Quick test_cec;
          Alcotest.test_case "guided patterns" `Quick test_guided_patterns;
          Alcotest.test_case "guided cut first" `Quick test_guided_cut_first;
        ] );
      ( "engines",
        [
          Alcotest.test_case "fraig preserves function" `Slow test_fraig_preserves;
          Alcotest.test_case "stp preserves function" `Slow test_stp_preserves;
          Alcotest.test_case "removes redundancy" `Quick
            test_sweep_removes_redundancy;
          Alcotest.test_case "stp saves sat calls" `Slow test_stp_saves_sat_calls;
          Alcotest.test_case "constant nodes" `Quick test_sweep_constant_nodes;
          Alcotest.test_case "idempotent" `Quick test_sweep_idempotent;
          Alcotest.test_case "window merges happen" `Quick
            test_window_merges_happen;
          Alcotest.test_case "stats invariants" `Quick test_stats_invariants;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"phase accounting + report round-trip"
               ~count:30 arb_sweep_case prop_phase_accounting);
          Alcotest.test_case "ablation configs preserve function" `Slow
            test_engine_ablation_configs;
          Alcotest.test_case "parallel sweep identical" `Quick
            test_parallel_sweep_identical;
          Alcotest.test_case "max_compares charges window splits" `Quick
            test_max_compares_charges_window_splits;
          Alcotest.test_case "guided consts recorded" `Quick
            test_guided_consts_recorded;
        ] );
      ( "window",
        [
          Alcotest.test_case "exact equivalence" `Quick
            test_window_exact_equivalence;
          Alcotest.test_case "too wide" `Quick test_window_too_wide;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "domain counts agree" `Slow
            test_dispatch_domains_agree;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"sat-domains 1/2/4 equivalent" ~count:10
               arb_dispatch_case prop_dispatch_equivalent);
          Alcotest.test_case "cube and conquer" `Slow
            test_dispatch_cube_and_conquer;
          Alcotest.test_case "pool counters reach Stats" `Slow
            test_dispatch_pool_counters;
          Alcotest.test_case "budget degrades" `Quick
            test_dispatch_budget_degrades;
          Alcotest.test_case "hwmcc bytes agree across domain counts" `Quick
            test_dispatch_hwmcc_bytes;
          Alcotest.test_case "2-domain reruns repeat bytes and merge counters"
            `Quick test_dispatch_rerun_counters;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "expired deadline degrades" `Quick
            test_deadline_degrades;
          Alcotest.test_case "mid-flight timeout keeps proven merges" `Slow
            test_timeout_partial;
          Alcotest.test_case "retry schedule" `Slow test_retry_schedule;
          Alcotest.test_case "self-verify accepts a correct sweep" `Quick
            test_self_verify;
          Alcotest.test_case "fault matrix" `Slow test_fault_matrix;
          Alcotest.test_case "certified sweep" `Quick test_certified_sweep;
          Alcotest.test_case "lying-solver matrix" `Slow
            test_lying_solver_matrix;
          Alcotest.test_case "parser truncation fault" `Quick
            test_parse_truncate_fault;
          Alcotest.test_case "fault catalog complete" `Quick
            test_fault_catalog_complete;
        ] );
      ( "cone_cert",
        [
          Alcotest.test_case "golden key and certificate" `Quick
            test_cone_cert_golden;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make
               ~name:"reference extract; proofs replay"
               ~count:150
               (QCheck.make ~print:Int64.to_string QCheck.Gen.ui64)
               prop_cone_cert);
        ] );
      ( "cut_window",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make
               ~name:"verdicts agree with the truth-table oracle" ~count:30
               (QCheck.make ~print:Int64.to_string QCheck.Gen.ui64)
               prop_cut_window);
          Alcotest.test_case "flipped relation is rejected" `Quick
            test_cut_window_flipped_proof;
          Alcotest.test_case "fail_window switches both tiers off" `Quick
            test_cut_window_fault_off;
          Alcotest.test_case "cut merges counted and reported" `Quick
            test_cut_merges_counted;
        ] );
      ( "cache",
        [
          Alcotest.test_case "warm run replays the cold run" `Slow
            test_cache_cold_warm;
          Alcotest.test_case "corrupt/torn entry matrix" `Slow
            test_cache_fault_matrix;
          Alcotest.test_case "paranoid rejects forged certificates" `Slow
            test_cache_paranoid_tamper;
          Alcotest.test_case "crash recovery + hostile keys" `Quick
            test_cache_crash_recovery;
          Alcotest.test_case "conflict limit 0 is a limit when cached" `Quick
            test_cache_conflict_limit_zero;
          Alcotest.test_case "paranoid rejects out-of-range literals" `Slow
            test_cache_paranoid_huge_literal;
        ] );
    ]

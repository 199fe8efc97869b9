(* Simulator tests: kernel plans (the AIG plan and both k-LUT
   instruction styles), the circuit-cut algorithm, and exhaustive
   windows. The key properties: every plan computes the naive
   evaluator's signatures, the styles agree bit-exactly, and mode-s
   simulation (cut + simulate roots only) matches mode-a on the
   requested nodes. Includes the paper's Fig. 1 / Section III-C
   example. *)

module A = Aig.Network
module L = Aig.Lit
module K = Klut.Network
module T = Tt.Truth_table
module P = Sim.Patterns
module Sg = Sim.Signature
module Rng = Sutil.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- patterns ---- *)

let test_patterns_basic () =
  let p = P.random ~seed:1L ~num_pis:3 ~num_patterns:100 in
  check_int "count" 100 (P.num_patterns p);
  check_int "words" 4 (P.num_words p);
  let p2 = P.random ~seed:1L ~num_pis:3 ~num_patterns:100 in
  check "deterministic" true
    (List.for_all
       (fun w -> P.word p ~pi:1 w = P.word p2 ~pi:1 w)
       [ 0; 1; 2; 3 ]);
  let e = P.exhaustive ~num_pis:4 in
  check_int "exhaustive count" 16 (P.num_patterns e);
  for i = 0 to 15 do
    for b = 0 to 3 do
      if P.get e ~pi:b ~pattern:i <> ((i lsr b) land 1 = 1) then
        Alcotest.failf "exhaustive layout wrong at %d/%d" i b
    done
  done

let test_patterns_of_rows () =
  (* The paper's ten patterns for the Fig. 1 circuit. *)
  let rows =
    [ "0101010101"; "1010101010"; "1111100000"; "0000011111"; "0011001100" ]
  in
  let p = P.of_rows rows in
  check_int "pis" 5 (P.num_pis p);
  check_int "patterns" 10 (P.num_patterns p);
  (* First simulation pattern is the first column: 0,1,1,0,0. *)
  check "pattern 0" true (P.pattern p 0 = [| false; true; true; false; false |])

let test_patterns_grow () =
  let p = P.create ~num_pis:2 in
  for i = 0 to 99 do
    P.add_pattern p [| i mod 2 = 0; i mod 3 = 0 |]
  done;
  check_int "grown" 100 (P.num_patterns p);
  check "bit 98" true (P.get p ~pi:0 ~pattern:98);
  check "bit 99" false (P.get p ~pi:0 ~pattern:99);
  let rng = Rng.create 5L in
  P.add_pattern_randomized p rng [| Some true; None |];
  check "forced bit" true (P.get p ~pi:0 ~pattern:100)

(* ---- reference evaluation ---- *)

let eval_aig net inputs =
  let v = Array.make (A.num_nodes net) false in
  A.iter_nodes net (fun nd ->
      match A.kind net nd with
      | A.Const -> ()
      | A.Pi i -> v.(nd) <- inputs.(i)
      | A.And ->
        let f l = v.(L.node l) <> L.is_compl l in
        v.(nd) <- f (A.fanin0 net nd) && f (A.fanin1 net nd));
  v

let random_aig rng ~pis ~gates ~pos =
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

let random_klut rng ~pis ~luts =
  let net = K.create () in
  let nodes = ref (List.init pis (fun _ -> K.add_pi net)) in
  for _ = 1 to luts do
    let arity = 1 + Rng.int rng 4 in
    let fanins =
      Array.init arity (fun _ ->
          List.nth !nodes (Rng.int rng (List.length !nodes)))
    in
    let f = T.random ~seed:(Rng.int64 rng) arity in
    nodes := K.add_lut net fanins f :: !nodes
  done;
  (* A few POs on the most recent nodes. *)
  List.iteri (fun i n -> if i < 3 then ignore (K.add_po net n (i mod 2 = 1))) !nodes;
  net

let aig_table net pats = Sim.Kernel.execute (Sim.Kernel.compile_aig net) pats

let klut_table ?domains style net pats =
  Sim.Kernel.execute ?domains (Sim.Kernel.compile_klut ~style net) pats

(* ---- AIG simulation ---- *)

let test_bitwise_aig_vs_eval () =
  let rng = Rng.create 3L in
  for _ = 1 to 10 do
    let net = random_aig rng ~pis:5 ~gates:30 ~pos:3 in
    let pats = P.random ~seed:(Rng.int64 rng) ~num_pis:5 ~num_patterns:70 in
    let tbl = aig_table net pats in
    for p = 0 to 69 do
      let v = eval_aig net (P.pattern pats p) in
      A.iter_nodes net (fun nd ->
          if Sg.get tbl.(nd) p <> v.(nd) then
            Alcotest.failf "bitwise AIG sim wrong at node %d pattern %d" nd p)
    done
  done

(* ---- k-LUT simulation ---- *)

let test_klut_engines_agree () =
  let rng = Rng.create 29L in
  for _ = 1 to 15 do
    let net = random_klut rng ~pis:6 ~luts:40 in
    let pats = P.random ~seed:(Rng.int64 rng) ~num_pis:6 ~num_patterns:99 in
    let naive = klut_table `Bitblast net pats in
    let stp = klut_table `Stp net pats in
    check "engines agree" true (naive = stp)
  done

let test_klut_sim_vs_eval () =
  let rng = Rng.create 41L in
  let net = random_klut rng ~pis:5 ~luts:25 in
  let pats = P.exhaustive ~num_pis:5 in
  let tbl = klut_table `Stp net pats in
  (* Evaluate node-by-node per pattern. *)
  for p = 0 to 31 do
    let inputs = P.pattern pats p in
    let v = Array.make (K.num_nodes net) false in
    K.iter_nodes net (fun nd ->
        if K.is_pi net nd then v.(nd) <- inputs.(K.pi_index net nd)
        else if K.is_lut net nd then
          v.(nd) <-
            T.eval (K.func net nd)
              (Array.map (fun f -> v.(f)) (K.fanins net nd)));
    K.iter_nodes net (fun nd ->
        if Sg.get tbl.(nd) p <> v.(nd) then
          Alcotest.failf "stp klut sim wrong at node %d pattern %d" nd p)
  done

let test_mapped_matches_aig () =
  (* AIG simulation and k-LUT simulation of its mapping agree on POs. *)
  let rng = Rng.create 53L in
  for _ = 1 to 10 do
    let net = random_aig rng ~pis:6 ~gates:40 ~pos:4 in
    let lut = Klut.Mapper.map ~k:4 net in
    let pats = P.random ~seed:(Rng.int64 rng) ~num_pis:6 ~num_patterns:64 in
    let atbl = aig_table net pats in
    let ltbl = klut_table `Stp lut pats in
    for o = 0 to A.num_pos net - 1 do
      let al = A.po net o in
      let asig =
        Sim.Bitwise.po_signature atbl ~num_patterns:64 ~lit:al
      in
      let lnode, lcompl = K.po lut o in
      let lsig =
        if lcompl then Sg.complement_of ~num_patterns:64 ltbl.(lnode)
        else ltbl.(lnode)
      in
      if asig <> lsig then Alcotest.failf "output %d differs" o
    done
  done

(* ---- circuit cut ---- *)

let fig1_network () =
  (* Section III-C: five PIs, six NAND nodes. Node numbering follows the
     paper: 6=NAND(1,3), 7=NAND(2,3), 8=NAND(7,4), 9=NAND(4,5),
     10=NAND(6,7), 11=NAND(8,9); po1=10, po2=11. *)
  let net = K.create () in
  let pi = Array.init 5 (fun _ -> K.add_pi net) in
  let nand = T.of_bin "0111" in
  let n6 = K.add_lut net [| pi.(0); pi.(2) |] nand in
  let n7 = K.add_lut net [| pi.(1); pi.(2) |] nand in
  let n8 = K.add_lut net [| n7; pi.(3) |] nand in
  let n9 = K.add_lut net [| pi.(3); pi.(4) |] nand in
  let n10 = K.add_lut net [| n6; n7 |] nand in
  let n11 = K.add_lut net [| n8; n9 |] nand in
  ignore (K.add_po net n10 false);
  ignore (K.add_po net n11 false);
  (net, pi, n6, n7, n8, n9, n10, n11)

let test_circuit_cut_fig1 () =
  let net, _, n6, n7, n8, n9, n10, n11 = fig1_network () in
  (* Ten patterns -> limit 3, as in the paper. *)
  let { Sim.Circuit_cut.network = cut_net; node_map; roots } =
    Sim.Circuit_cut.cut net ~limit:3 ~targets:[ n10; n11; n7; n8 ]
  in
  (* The paper's four cuts: roots 10 (absorbing 6), 11 (absorbing 9), and
     the boundary nodes 7, 8. *)
  check "roots" true (List.sort compare roots = List.sort compare [ n7; n8; n10; n11 ]);
  check "6 collapsed" true (node_map.(n6) = -1);
  check "9 collapsed" true (node_map.(n9) = -1);
  check_int "cut network luts" 4 (K.num_luts cut_net);
  (* Cut (6,10) has leaves 1,3,7 (three inputs, within the limit). *)
  let leaves_of root =
    Array.to_list (K.fanins cut_net node_map.(root)) |> List.sort compare
  in
  let orig_of n =
    (* invert node_map for PIs *)
    let found = ref (-1) in
    Array.iteri (fun o m -> if m = n then found := o) node_map;
    !found
  in
  check "cut(6,10) leaves" true
    (List.map orig_of (leaves_of n10) = [ 1; 3; n7 ]);
  check "cut(9,11) leaves" true
    (List.map orig_of (leaves_of n11) = [ 4; 5; n8 ])

let test_circuit_cut_function_preserved () =
  let net, _, _, n7, n8, _, n10, n11 = fig1_network () in
  let rows =
    [ "0101010101"; "1010101010"; "1111100000"; "0000011111"; "0011001100" ]
  in
  let pats = P.of_rows rows in
  let full = klut_table `Stp net pats in
  let specified =
    Sim.Circuit_cut.simulate net pats ~targets:[ n7; n8; n10; n11 ]
  in
  List.iter
    (fun (node, s) ->
      if s <> full.(node) then
        Alcotest.failf "specified-node signature differs at node %d" node)
    specified

let test_circuit_cut_random () =
  let rng = Rng.create 61L in
  for _ = 1 to 15 do
    let net = random_klut rng ~pis:6 ~luts:30 in
    let pats = P.random ~seed:(Rng.int64 rng) ~num_pis:6 ~num_patterns:50 in
    let full = klut_table `Stp net pats in
    (* Pick a few random LUT targets. *)
    let luts = ref [] in
    K.iter_luts net (fun n -> luts := n :: !luts);
    let luts = Array.of_list !luts in
    let targets =
      List.init 4 (fun _ -> luts.(Rng.int rng (Array.length luts)))
      |> List.sort_uniq compare
    in
    let result = Sim.Circuit_cut.simulate net pats ~targets in
    List.iter
      (fun (node, s) ->
        if s <> full.(node) then Alcotest.failf "node %d differs" node)
      result
  done

let test_circuit_cut_respects_limit () =
  let rng = Rng.create 67L in
  let net = random_klut rng ~pis:8 ~luts:60 in
  let luts = ref [] in
  K.iter_luts net (fun n -> luts := n :: !luts);
  let targets = [ List.hd !luts ] in
  List.iter
    (fun limit ->
      let { Sim.Circuit_cut.network = cut_net; _ } =
        Sim.Circuit_cut.cut net ~limit ~targets
      in
      check
        (Printf.sprintf "limit %d respected" limit)
        true
        (K.max_fanin cut_net <= max limit (K.max_fanin net)))
    [ 2; 3; 4; 8 ]

(* ---- incremental simulation ---- *)

(* What the sweep engine does after a counter-example batch: keep the
   compiled plan and its table, grow the rows to the new word count, and
   re-run the plan over only the words from the one holding the first
   new pattern (its old tail bits were masked off and are now live). *)
let tail_refresh plan pats tbl ~covered =
  let nw = P.num_words pats in
  let tbl =
    Array.map
      (fun row -> Array.init nw (fun w -> if w < Array.length row then row.(w) else 0))
      tbl
  in
  Sim.Kernel.run plan pats tbl ~inst_lo:0
    ~inst_hi:(Sim.Kernel.num_instructions plan)
    ~lo:(covered lsr 5) ~hi:nw;
  Array.iter (Sg.num_patterns_mask (P.num_patterns pats)) tbl;
  tbl

let test_incremental_matches_full () =
  let rng = Rng.create 71L in
  for _ = 1 to 8 do
    let net = random_aig rng ~pis:6 ~gates:40 ~pos:3 in
    let pats = P.random ~seed:(Rng.int64 rng) ~num_pis:6 ~num_patterns:50 in
    let plan = Sim.Kernel.compile_aig net in
    let tbl = Sim.Kernel.execute plan pats in
    (* Append a bunch of patterns one at a time. *)
    for _ = 1 to 45 do
      P.add_pattern pats (Array.init 6 (fun _ -> Rng.bool rng))
    done;
    let got = tail_refresh plan pats tbl ~covered:50 in
    let full = Sim.Kernel.execute plan pats in
    A.iter_nodes net (fun nd ->
        if got.(nd) <> full.(nd) then
          Alcotest.failf "incremental differs at node %d" nd)
  done

let test_incremental_is_incremental () =
  let rng = Rng.create 73L in
  let net = random_aig rng ~pis:6 ~gates:60 ~pos:3 in
  let pats = P.random ~seed:5L ~num_pis:6 ~num_patterns:320 in
  let plan = Sim.Kernel.compile_aig net in
  let tbl = Sim.Kernel.execute plan pats in
  (* 32 appended patterns after 10 full words land in word 10 alone.
     Poison the covered words: a tail refresh that touched them would
     either overwrite the poison or read it into the tail. *)
  for _ = 1 to 32 do
    P.add_pattern pats (Array.make 6 true)
  done;
  Array.iter (fun row -> Array.fill row 0 (Array.length row) 0x5A5A5A5A) tbl;
  let got = tail_refresh plan pats tbl ~covered:320 in
  let full = Sim.Kernel.execute plan pats in
  check_int "patterns counted" 352 (P.num_patterns pats);
  A.iter_nodes net (fun nd ->
      if Array.sub got.(nd) 0 10 <> Array.make 10 0x5A5A5A5A then
        Alcotest.failf "covered word recomputed at node %d" nd;
      if got.(nd).(10) <> full.(nd).(10) then
        Alcotest.failf "tail word differs at node %d" nd)

(* ---- parallel (domain-sharded) simulation ---- *)

let qcheck_case ~name ~count arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

(* seed, domains 1..4, pattern count deliberately spanning non-multiples
   of 32 so the tail-word fix-up is exercised. *)
let arb_par_case =
  QCheck.make
    ~print:(fun (s, d, np) -> Printf.sprintf "seed=%Ld domains=%d patterns=%d" s d np)
    QCheck.Gen.(
      let* s = ui64 in
      let* d = int_range 1 4 in
      let* np = int_range 1 200 in
      return (s, d, np))

let prop_parallel_aig (seed, domains, np) =
  let rng = Rng.create seed in
  let net = random_aig rng ~pis:6 ~gates:50 ~pos:3 in
  let pats = P.random ~seed:(Rng.int64 rng) ~num_pis:6 ~num_patterns:np in
  let plan = Sim.Kernel.compile_aig net in
  Sim.Kernel.execute ~domains plan pats = Sim.Kernel.execute plan pats

let prop_parallel_klut (seed, domains, np) =
  let rng = Rng.create seed in
  let net = random_klut rng ~pis:6 ~luts:40 in
  let pats = P.random ~seed:(Rng.int64 rng) ~num_pis:6 ~num_patterns:np in
  List.for_all
    (fun style -> klut_table ~domains style net pats = klut_table style net pats)
    [ `Stp; `Bitblast ]

let test_par_split () =
  for n = 0 to 130 do
    for chunks = 1 to 6 do
      let ranges = Sutil.Par.split ~chunks n in
      (* Ranges are non-empty, contiguous, and cover [0, n). *)
      let expected = ref 0 in
      Array.iter
        (fun (lo, hi) ->
          if lo <> !expected || hi <= lo then
            Alcotest.failf "bad range (%d,%d) for n=%d chunks=%d" lo hi n chunks;
          expected := hi)
        ranges;
      if !expected <> n then
        Alcotest.failf "ranges cover %d of %d (chunks=%d)" !expected n chunks;
      if Array.length ranges > chunks then Alcotest.fail "too many ranges"
    done
  done

let test_pool_reuse () =
  let module Pool = Sutil.Par.Pool in
  let pool = Pool.create ~domains:3 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.(check int) "width" 3 (Pool.domains pool);
  (* Several drains through the same workers: every task runs exactly
     once, on a pool member, and writes only its own slot. *)
  for round = 1 to 5 do
    let n = 7 * round in
    let writes = Array.make n 0 and ran_on = Array.make n (-1) in
    Pool.drain pool n (fun ~domain i ->
        writes.(i) <- writes.(i) + 1;
        ran_on.(i) <- domain);
    Array.iteri
      (fun i w ->
        if w <> 1 then Alcotest.failf "round %d: slot %d written %d times" round i w;
        if ran_on.(i) < 0 || ran_on.(i) >= 3 then
          Alcotest.failf "round %d: slot %d ran on domain %d" round i ran_on.(i))
      writes
  done

let test_pool_spawn_failure () =
  (* More domains than the runtime allows: the spawn fails part-way, and
     the workers spawned before it must not stay alive holding their
     slots — afterwards an ordinary fork-join still gets its domains. *)
  (match Sutil.Par.Pool.create ~domains:1000 with
  | pool -> Sutil.Par.Pool.shutdown pool
  | exception Failure _ -> ());
  let slots = Array.make 2 0 in
  Sutil.Par.run ~domains:2 (fun i -> slots.(i) <- i + 1);
  Alcotest.(check (array int)) "both domains ran" [| 1; 2 |] slots

let test_compile_cache () =
  let module C = Sim.Kernel.Cache in
  let net = K.create () in
  let pis = Array.init 4 (fun _ -> K.add_pi net) in
  let nand = T.of_bin "0111" in
  let xor2 = T.of_bin "0110" in
  (* Four NANDs sharing one function, one XOR: 2 distinct tables. *)
  let a = K.add_lut net [| pis.(0); pis.(1) |] nand in
  let b = K.add_lut net [| pis.(2); pis.(3) |] nand in
  let c = K.add_lut net [| a; b |] nand in
  let d = K.add_lut net [| pis.(1); pis.(2) |] nand in
  let e = K.add_lut net [| c; d |] xor2 in
  ignore (K.add_po net e false);
  let pats = P.random ~seed:9L ~num_pis:4 ~num_patterns:77 in
  let cache = C.create () in
  let stp () =
    Sim.Kernel.execute (Sim.Kernel.compile_klut ~cache ~style:`Stp net) pats
  in
  let t1 = stp () in
  check_int "misses = distinct functions" 2 (C.misses cache);
  check_int "hits = shared functions" 3 (C.hits cache);
  (* Re-simulating with the same cache recompiles nothing. *)
  let t2 = stp () in
  check_int "second pass misses" 2 (C.misses cache);
  check_int "second pass hits" 8 (C.hits cache);
  check "cached result identical" true (t1 = t2);
  check "matches bitwise" true (t1 = klut_table `Bitblast net pats)

(* ---- kernel plans ---- *)

(* The kernel is the library's one simulator, so its tests compare
   plans against the naive per-pattern reference directly. *)

let arb_kernel_case =
  QCheck.make
    ~print:(fun (s, d, np) ->
      Printf.sprintf "seed=%Ld domains=%d patterns=%d" s d np)
    QCheck.Gen.(
      let* s = ui64 in
      let* d = oneofl [ 1; 2; 4 ] in
      let* np = int_range 1 200 in
      return (s, d, np))

let prop_kernel_aig_vs_eval (seed, domains, np) =
  let rng = Rng.create seed in
  let net = random_aig rng ~pis:6 ~gates:50 ~pos:3 in
  let pats = P.random ~seed:(Rng.int64 rng) ~num_pis:6 ~num_patterns:np in
  let tbl = Sim.Kernel.execute ~domains (Sim.Kernel.compile_aig net) pats in
  let ok = ref true in
  for p = 0 to np - 1 do
    let v = eval_aig net (P.pattern pats p) in
    A.iter_nodes net (fun nd -> if Sg.get tbl.(nd) p <> v.(nd) then ok := false)
  done;
  (* And the tail words past [np] stay masked to zero regardless of the
     shard count. *)
  A.iter_nodes net (fun nd ->
      let masked = Array.copy tbl.(nd) in
      Sg.num_patterns_mask np masked;
      if masked <> tbl.(nd) then ok := false);
  !ok

let eval_klut net inputs =
  let v = Array.make (K.num_nodes net) false in
  K.iter_nodes net (fun nd ->
      if K.is_pi net nd then v.(nd) <- inputs.(K.pi_index net nd)
      else if K.is_lut net nd then
        v.(nd) <-
          T.eval (K.func net nd) (Array.map (fun f -> v.(f)) (K.fanins net nd)));
  v

let prop_kernel_klut_styles (seed, domains, np) =
  let rng = Rng.create seed in
  let net = random_klut rng ~pis:6 ~luts:40 in
  let pats = P.random ~seed:(Rng.int64 rng) ~num_pis:6 ~num_patterns:np in
  let stp =
    Sim.Kernel.execute ~domains (Sim.Kernel.compile_klut ~style:`Stp net) pats
  in
  let blast =
    Sim.Kernel.execute ~domains
      (Sim.Kernel.compile_klut ~style:`Bitblast net)
      pats
  in
  let ok = ref (stp = blast) in
  for p = 0 to np - 1 do
    let v = eval_klut net (P.pattern pats p) in
    K.iter_nodes net (fun nd -> if Sg.get stp.(nd) p <> v.(nd) then ok := false)
  done;
  !ok

(* Growing a plan in place (the sweep engine's append path) must agree
   with recompiling the grown network from scratch. *)
let prop_plan_patch (seed, domains, np) =
  let rng = Rng.create seed in
  let net = random_aig rng ~pis:6 ~gates:30 ~pos:2 in
  let plan = Sim.Kernel.compile_aig net in
  let pats = P.random ~seed:(Rng.int64 rng) ~num_pis:6 ~num_patterns:np in
  let tbl = Sim.Kernel.execute ~domains plan pats in
  let n0 = A.num_nodes net in
  (* Grow the same network append-only, as SAT sweeping does. *)
  let pick () =
    let nd = Rng.int rng n0 in
    L.of_node nd (Rng.bool rng)
  in
  for _ = 1 to 20 do
    ignore (A.add_and net (pick ()) (pick ()))
  done;
  Sim.Kernel.extend_aig plan net;
  let n = A.num_nodes net in
  let nw = P.num_words pats in
  let ext =
    Array.init n (fun nd -> if nd < n0 then tbl.(nd) else Array.make nw 0)
  in
  Sim.Kernel.run_sharded ~domains plan pats ext ~inst_lo:n0 ~inst_hi:n ~lo:0
    ~hi:nw;
  for nd = n0 to n - 1 do
    Sg.num_patterns_mask np ext.(nd)
  done;
  let scratch = Sim.Kernel.execute ~domains (Sim.Kernel.compile_aig net) pats in
  Sim.Kernel.num_instructions plan = n && ext = scratch

(* Random interleavings of pattern appends and tail refreshes: after
   every refresh the patched table equals a from-scratch simulation. *)
let arb_incremental_case =
  QCheck.make
    ~print:(fun (s, steps) ->
      Printf.sprintf "seed=%Ld steps=[%s]" s
        (String.concat ";" (List.map string_of_int steps)))
    QCheck.Gen.(
      let* s = ui64 in
      let* steps = list_size (int_range 1 6) (int_range 0 40) in
      return (s, steps))

let prop_incremental_sequences (seed, steps) =
  let rng = Rng.create seed in
  let net = random_aig rng ~pis:5 ~gates:40 ~pos:2 in
  let pats = P.random ~seed:(Rng.int64 rng) ~num_pis:5 ~num_patterns:33 in
  let plan = Sim.Kernel.compile_aig net in
  let tbl = ref (Sim.Kernel.execute plan pats) in
  List.for_all
    (fun appends ->
      let covered = P.num_patterns pats in
      for _ = 1 to appends do
        P.add_pattern pats (Array.init 5 (fun _ -> Rng.bool rng))
      done;
      tbl := tail_refresh plan pats !tbl ~covered;
      !tbl = Sim.Kernel.execute plan pats)
    steps

let test_kernel_cache_bound () =
  let net = K.create () in
  let pis = Array.init 4 (fun _ -> K.add_pi net) in
  (* Five distinct 2-input functions through a 2-entry cache. *)
  let fns = [ "0111"; "0110"; "0001"; "1110"; "1001" ] in
  let prev = ref pis.(0) in
  List.iter
    (fun bin ->
      prev := K.add_lut net [| !prev; pis.(1) |] (T.of_bin bin))
    fns;
  ignore (K.add_po net !prev false);
  let cache = Sim.Kernel.Cache.create ~max_entries:2 () in
  let pats = P.random ~seed:17L ~num_pis:4 ~num_patterns:50 in
  let plan = Sim.Kernel.compile_klut ~cache ~style:`Stp net in
  let tbl = Sim.Kernel.execute plan pats in
  check_int "misses" 5 (Sim.Kernel.Cache.misses cache);
  check_int "evictions" 3 (Sim.Kernel.Cache.evictions cache);
  check "bounded" true (Sim.Kernel.Cache.length cache <= 2);
  (* Eviction only forgets compilations, never changes results. *)
  check "results unaffected" true (tbl = klut_table `Bitblast net pats)

(* An empty pattern set simulates to one zero word per node under every
   plan kind, reading no pattern word past the set. *)
let test_kernel_empty_patterns () =
  let rng = Rng.create 79L in
  let aig = random_aig rng ~pis:4 ~gates:20 ~pos:2 in
  let lut = random_klut rng ~pis:4 ~luts:12 in
  List.iter
    (fun (what, pats) ->
      let tables =
        [
          ("aig", aig_table aig pats);
          ("stp", klut_table `Stp lut pats);
          ("bitblast", klut_table `Bitblast lut pats);
        ]
      in
      List.iter
        (fun (plan, tbl) ->
          Array.iteri
            (fun nd row ->
              if row <> [| 0 |] then
                Alcotest.failf "%s, %s plan: node %d is not one zero word" what
                  plan nd)
            tbl)
        tables)
    [
      ("created", P.create ~num_pis:4);
      ("random 0", P.random ~seed:3L ~num_pis:4 ~num_patterns:0);
    ]

(* ---- signatures ---- *)

let test_signature_helpers () =
  let s = [| 0b1010; 0 |] in
  check "get" true (Sg.get s 1);
  check "get0" false (Sg.get s 0);
  let c = Sg.complement_of ~num_patterns:40 s in
  check "compl bit" true (Sg.get c 0);
  check "equal up to compl" true (Sg.equal_up_to_compl ~num_patterns:40 s c);
  let norm, flipped = Sg.normalize ~num_patterns:40 c in
  check "normalized flipped" true flipped;
  check "normalized value" true (norm = s);
  check_int "count" 2 (Sg.count_ones s);
  check "const0" true (Sg.is_const0 [| 0; 0 |]);
  check "const1" true (Sg.is_const1 ~num_patterns:40 [| -1 land 0xFFFFFFFF; 0xFF |]);
  (* equal_complement is the allocation-free equivalent of comparing
     against complement_of. *)
  check "equal_complement" true (Sg.equal_complement ~num_patterns:40 s c);
  check "equal_complement self" false (Sg.equal_complement ~num_patterns:40 s s);
  check "equal words" true (Sg.equal (Array.copy s) s);
  check "equal length" false (Sg.equal s [| 0b1010 |])

(* The monomorphic equality pair must agree with the allocating
   reference formulation on arbitrary masked signatures. *)
let arb_sig_pair =
  QCheck.make
    ~print:(fun (np, a, b) ->
      Printf.sprintf "np=%d a=[|%s|] b=[|%s|]" np
        (String.concat ";" (Array.to_list (Array.map string_of_int a)))
        (String.concat ";" (Array.to_list (Array.map string_of_int b))))
    QCheck.Gen.(
      let* words = int_range 1 4 in
      let* np = int_range ((words - 1) * 32 + 1) (words * 32) in
      let word = int_bound 0xFFFFFFFF in
      let masked =
        map
          (fun a ->
            Sg.num_patterns_mask np a;
            a)
          (array_size (return words) word)
      in
      let* a = masked in
      let* b =
        (* Bias towards related signatures so the equal branches are hit. *)
        oneof
          [ return (Array.copy a); return (Sg.complement_of ~num_patterns:np a); masked ]
      in
      return (np, a, b))

let prop_signature_equal (np, a, b) =
  Sg.equal a b = (a = b)
  && Sg.equal_complement ~num_patterns:np a b
     = Sg.equal a (Sg.complement_of ~num_patterns:np b)
  && Sg.equal_up_to_compl ~num_patterns:np a b
     = (a = b || a = Sg.complement_of ~num_patterns:np b)

let () =
  Alcotest.run "sim"
    [
      ( "patterns",
        [
          Alcotest.test_case "basic" `Quick test_patterns_basic;
          Alcotest.test_case "of_rows (paper)" `Quick test_patterns_of_rows;
          Alcotest.test_case "growth" `Quick test_patterns_grow;
        ] );
      ( "aig",
        [ Alcotest.test_case "bitwise vs eval" `Quick test_bitwise_aig_vs_eval ]
      );
      ( "klut",
        [
          Alcotest.test_case "engines agree" `Quick test_klut_engines_agree;
          Alcotest.test_case "stp vs eval" `Quick test_klut_sim_vs_eval;
          Alcotest.test_case "mapped matches aig" `Quick test_mapped_matches_aig;
        ] );
      ( "circuit_cut",
        [
          Alcotest.test_case "fig1 cuts" `Quick test_circuit_cut_fig1;
          Alcotest.test_case "fig1 signatures" `Quick
            test_circuit_cut_function_preserved;
          Alcotest.test_case "random targets" `Quick test_circuit_cut_random;
          Alcotest.test_case "limit respected" `Quick
            test_circuit_cut_respects_limit;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "matches full simulation" `Quick
            test_incremental_matches_full;
          Alcotest.test_case "recomputes only the tail" `Quick
            test_incremental_is_incremental;
        ] );
      ( "parallel",
        [
          qcheck_case ~name:"aig: sharded = sequential" ~count:60 arb_par_case
            prop_parallel_aig;
          qcheck_case ~name:"klut: sharded = sequential" ~count:60 arb_par_case
            prop_parallel_klut;
          Alcotest.test_case "range splitting" `Quick test_par_split;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "pool spawn failure joins workers" `Quick
            test_pool_spawn_failure;
          Alcotest.test_case "compile cache" `Quick test_compile_cache;
        ] );
      ( "kernel",
        [
          qcheck_case ~name:"aig plan = naive eval" ~count:40 arb_kernel_case
            prop_kernel_aig_vs_eval;
          qcheck_case ~name:"klut styles = naive eval" ~count:40
            arb_kernel_case prop_kernel_klut_styles;
          qcheck_case ~name:"plan patch = scratch recompile" ~count:40
            arb_kernel_case prop_plan_patch;
          qcheck_case ~name:"incremental sequences" ~count:30
            arb_incremental_case prop_incremental_sequences;
          Alcotest.test_case "cache bound" `Quick test_kernel_cache_bound;
          Alcotest.test_case "empty pattern set" `Quick
            test_kernel_empty_patterns;
        ] );
      ( "signature",
        [
          Alcotest.test_case "helpers" `Quick test_signature_helpers;
          qcheck_case ~name:"equal/equal_complement = reference" ~count:300
            arb_sig_pair prop_signature_equal;
        ] );
    ]

(* AIG package tests: structural hashing invariants, evaluation, levels,
   cones, rebuild with replacements, and AIGER roundtrips. *)

module A = Aig.Network
module L = Aig.Lit
module Rng = Sutil.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Direct evaluation used as the reference semantics throughout. *)
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

let equal_networks a b =
  (* Functional equality by exhaustive evaluation; assumes <= 14 PIs. *)
  A.num_pis a = A.num_pis b
  && A.num_pos a = A.num_pos b
  &&
  let n = A.num_pis a in
  let ok = ref true in
  for i = 0 to (1 lsl n) - 1 do
    let inputs = Array.init n (fun p -> (i lsr p) land 1 = 1) in
    if eval a inputs <> eval b inputs then ok := false
  done;
  !ok

let test_lit () =
  let l = L.of_node 5 true in
  check_int "node" 5 (L.node l);
  check "compl" true (L.is_compl l);
  check "not" true (L.not_ l = L.of_node 5 false);
  check "regular" true (L.regular l = L.of_node 5 false);
  check "const" true (L.is_const L.true_ && L.is_const L.false_);
  check "xor_compl" true (L.xor_compl l true = L.not_ l)

let test_strash () =
  let net = A.create () in
  let a = A.add_pi net and b = A.add_pi net in
  let x = A.add_and net a b in
  let y = A.add_and net b a in
  check "commutative hash" true (x = y);
  check_int "one AND" 1 (A.num_ands net);
  (* Trivial rules *)
  check "and(a,a)=a" true (A.add_and net a a = a);
  check "and(a,!a)=0" true (A.add_and net a (L.not_ a) = L.false_);
  check "and(a,1)=a" true (A.add_and net a L.true_ = a);
  check "and(a,0)=0" true (A.add_and net a L.false_ = L.false_);
  check_int "no new nodes" 1 (A.num_ands net);
  check "find_and hit" true (A.find_and net a b = Some x);
  check "find_and miss" true
    (A.find_and net a (L.not_ b) = None);
  (* The table keys on both fanins and survives growth: a network made
     for 8 nodes takes 900 ANDs that share a fanin node, keeps them
     distinct and finds each again. *)
  let net = A.create ~capacity:8 () in
  let a = A.add_pi net in
  let ys = Array.init 300 (fun _ -> A.add_pi net) in
  let pairs =
    Array.concat
      (List.map
         (fun (ca, cy) -> Array.map (fun y -> (L.xor_compl a ca, L.xor_compl y cy)) ys)
         [ (false, false); (true, false); (false, true) ])
  in
  let made = Array.map (fun (p, q) -> A.add_and net p q) pairs in
  check_int "one AND per pair" 900 (A.num_ands net);
  Array.iteri
    (fun i (p, q) -> check "found again" true (A.find_and net q p = Some made.(i)))
    pairs

let test_levels_fanout () =
  let net = A.create () in
  let a = A.add_pi net and b = A.add_pi net and c = A.add_pi net in
  let ab = A.add_and net a b in
  let abc = A.add_and net ab c in
  ignore (A.add_po net abc);
  check_int "level a" 0 (A.level net (L.node a));
  check_int "level ab" 1 (A.level net (L.node ab));
  check_int "level abc" 2 (A.level net (L.node abc));
  check_int "depth" 2 (A.depth net);
  check_int "fanout a" 1 (A.fanout_count net (L.node a));
  check_int "fanout ab" 1 (A.fanout_count net (L.node ab));
  check_int "fanout abc (PO)" 1 (A.fanout_count net (L.node abc))

let test_gates_semantics () =
  let net = A.create () in
  let a = A.add_pi net and b = A.add_pi net and c = A.add_pi net in
  ignore (A.add_po net (A.add_xor net a b));
  ignore (A.add_po net (A.add_or net a b));
  ignore (A.add_po net (A.add_mux net a b c));
  ignore (A.add_po net (A.add_maj net a b c));
  for i = 0 to 7 do
    let x = Array.init 3 (fun p -> (i lsr p) land 1 = 1) in
    let out = eval net x in
    check "xor" true (out.(0) = (x.(0) <> x.(1)));
    check "or" true (out.(1) = (x.(0) || x.(1)));
    check "mux" true (out.(2) = if x.(0) then x.(1) else x.(2));
    let maj = (x.(0) && x.(1)) || (x.(1) && x.(2)) || (x.(2) && x.(0)) in
    check "maj" true (out.(3) = maj)
  done

let test_cone () =
  let net = A.create () in
  let a = A.add_pi net and b = A.add_pi net and c = A.add_pi net in
  let ab = A.add_and net a b in
  let bc = A.add_and net b c in
  let top = A.add_and net ab bc in
  ignore (A.add_po net top);
  let tfi = Aig.Cone.tfi net [ L.node top ] in
  check_int "tfi size" 6 (List.length tfi);
  let leaves = Aig.Cone.leaves net [ L.node ab ] in
  check "leaves of ab" true (leaves = [ L.node a; L.node b ]);
  check_int "cone_size top" 3 (Aig.Cone.cone_size net (L.node top));
  let bounded, truncated = Aig.Cone.tfi_bounded net [ L.node top ] ~limit:2 in
  check "bounded truncated" true truncated;
  check_int "bounded size" 2 (List.length bounded)

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

let test_cleanup_preserves_function () =
  let rng = Rng.create 11L in
  for _ = 1 to 20 do
    let net = random_network rng ~pis:5 ~gates:30 ~pos:4 in
    let cleaned, _map = A.cleanup net in
    check "cleanup equal" true (equal_networks net cleaned);
    check "cleanup no larger" true (A.num_ands cleaned <= A.num_ands net)
  done

let test_rebuild_with_replacement () =
  let net = A.create () in
  let a = A.add_pi net and b = A.add_pi net in
  let x1 = A.add_xor net a b in
  (* A structurally distinct duplicate of xor via nands. *)
  let n1 = L.not_ (A.add_and net a b) in
  let n2 = L.not_ (A.add_and net a n1) in
  let n3 = L.not_ (A.add_and net b n1) in
  let x2 = L.not_ (A.add_and net n2 n3) in
  ignore (A.add_po net x1);
  ignore (A.add_po net x2);
  check "duplicate exists" true (L.node x1 <> L.node x2);
  (* Merge the later implementation onto the earlier. *)
  let map = Array.make (A.num_nodes net) (-1) in
  let earlier, later =
    if L.node x1 < L.node x2 then (x1, x2) else (x2, x1)
  in
  map.(L.node later) <- L.xor_compl earlier (L.is_compl later);
  let merged, tr = A.rebuild ~map net in
  check "function preserved" true (equal_networks net merged);
  check "got smaller" true (A.num_ands merged < A.num_ands net);
  check "translation defined for po nodes" true
    (tr.(L.node x1) >= 0);
  (* Backward-pointing requirement is enforced. *)
  let bad = Array.make (A.num_nodes net) (-1) in
  bad.(L.node earlier) <- later;
  (try
     ignore (A.rebuild ~map:bad net);
     Alcotest.fail "forward replacement accepted"
   with Invalid_argument _ -> ())

let test_aiger_roundtrip () =
  let rng = Rng.create 23L in
  for _ = 1 to 20 do
    let net = random_network rng ~pis:4 ~gates:20 ~pos:3 in
    let text = Aig.Aiger.write net in
    let back = Aig.Aiger.read text in
    check "aiger roundtrip" true (equal_networks net back)
  done

let test_aiger_fixed () =
  (* Hand-written file: an AND of two inputs, one inverted output. *)
  let text = "aag 3 2 0 1 1\n2\n4\n7\n6 2 4\n" in
  let net = Aig.Aiger.read text in
  check_int "pis" 2 (A.num_pis net);
  check_int "ands" 1 (A.num_ands net);
  let out = eval net [| true; true |] in
  check "!(1&1)" false out.(0);
  let out = eval net [| true; false |] in
  check "!(1&0)" true out.(0);
  (* leading zeros are still decimal *)
  check "leading zeros" true
    (Aig.Aiger.write (Aig.Aiger.read "aag 03 02 0 01 01\n02\n04\n07\n06 02 004\n") = text)

let test_aiger_sequential () =
  (* One latch: q' = q & i; output q. The combinational view gets the
     latch output as a second PI and its next-state as a second PO. *)
  let text = "aag 3 1 1 1 1\n2\n4 6\n4\n6 2 4\n" in
  let net, latches = Aig.Aiger.read_sequential text in
  check_int "latches" 1 latches;
  check_int "pis: real + latch" 2 (A.num_pis net);
  check_int "pos: real + next" 2 (A.num_pos net);
  (* PO 0 = q (the latch PI, index 1); PO 1 = i & q. *)
  let out = eval net [| true; true |] in
  check "q out" true out.(0);
  check "next" true out.(1);
  let out = eval net [| false; true |] in
  check "next gated" false out.(1);
  (* The strict reader still refuses latches. *)
  (try
     ignore (Aig.Aiger.read text);
     Alcotest.fail "strict reader accepted latches"
   with Aig.Aiger.Parse_error _ -> ())

let test_aiger_errors () =
  List.iter
    (fun text ->
      try
        ignore (Aig.Aiger.read text);
        Alcotest.failf "should not parse: %s" text
      with Aig.Aiger.Parse_error _ -> ())
    [
      "";
      "aag 1 1 0 0\n2\n";
      "aag 1 1 1 0 0\n2\n1 1 1\n";
      "nonsense\n";
      "aag 2 1 0 1 1\n2\n4\n4 6 2\n" (* forward ref *);
      (* integers are plain unsigned decimal: no sign, base prefix or
         underscore, which [int_of_string] would take *)
      "aag 1 1 0 1 0\n+2\n2\n";
      "aag 1 1 0 1 0\n2\n0x2\n";
      "aag 1 1 0 1 0\n2\n2_\n";
      "aag -0 0 0 0 0\n";
    ]

let test_balance () =
  (* A long AND chain must become logarithmic. *)
  let net = A.create () in
  let pis = Array.init 16 (fun _ -> A.add_pi net) in
  let acc = ref pis.(0) in
  for i = 1 to 15 do
    acc := A.add_and net !acc pis.(i)
  done;
  ignore (A.add_po net !acc);
  check_int "chain depth" 15 (A.depth net);
  let balanced, map = Aig.Balance.balance net in
  check "function preserved" true (equal_networks net balanced);
  check_int "balanced depth" 4 (A.depth balanced);
  check "po mapped" true (map.(L.node !acc) >= 0);
  (* Random networks: function and depth never get worse. *)
  let rng = Rng.create 17L in
  for _ = 1 to 15 do
    let net = random_network rng ~pis:6 ~gates:50 ~pos:4 in
    let balanced, _ = Aig.Balance.balance net in
    check "random balance equal" true (equal_networks net balanced);
    check "depth not worse" true (A.depth balanced <= A.depth net)
  done

let () =
  Alcotest.run "aig"
    [
      ( "network",
        [
          Alcotest.test_case "literals" `Quick test_lit;
          Alcotest.test_case "strash" `Quick test_strash;
          Alcotest.test_case "levels and fanout" `Quick test_levels_fanout;
          Alcotest.test_case "gate semantics" `Quick test_gates_semantics;
          Alcotest.test_case "cones" `Quick test_cone;
        ] );
      ( "rebuild",
        [
          Alcotest.test_case "cleanup preserves function" `Quick
            test_cleanup_preserves_function;
          Alcotest.test_case "replacement merge" `Quick
            test_rebuild_with_replacement;
        ] );
      ("balance", [ Alcotest.test_case "balance" `Quick test_balance ]);
      ( "aiger",
        [
          Alcotest.test_case "roundtrip" `Quick test_aiger_roundtrip;
          Alcotest.test_case "fixed file" `Quick test_aiger_fixed;
          Alcotest.test_case "sequential" `Quick test_aiger_sequential;
          Alcotest.test_case "errors" `Quick test_aiger_errors;
        ] );
    ]

(* Quickstart: build a small circuit, map it to LUTs, simulate it with
   both instruction styles, sweep it, and check the result.

     dune exec examples/quickstart.exe
*)

open Stp_sweep

let () =
  (* 1. Build an AIG: a 4-bit equality comparator with a deliberately
     redundant second implementation feeding another output. *)
  let net = Aig.Network.create () in
  let a = Array.init 4 (fun _ -> Aig.Network.add_pi net) in
  let b = Array.init 4 (fun _ -> Aig.Network.add_pi net) in
  let eq_bits = Array.map2 (fun x y -> Aig.Lit.not_ (Aig.Network.add_xor net x y)) a b in
  let eq = Array.fold_left (Aig.Network.add_and net) Aig.Lit.true_ eq_bits in
  (* The same function, built the long way: !(a<b) & !(b<a) via
     subtractor borrows. *)
  let borrow x y =
    (* borrow of x - y, rippled *)
    let c = ref Aig.Lit.false_ in
    Array.iteri
      (fun i xi ->
        let yi = y.(i) in
        (* borrow' = (!x & y) | (!x & c) | (y & c) *)
        let nx = Aig.Lit.not_ xi in
        let t1 = Aig.Network.add_and net nx yi in
        let t2 = Aig.Network.add_and net nx !c in
        let t3 = Aig.Network.add_and net yi !c in
        c := Aig.Network.add_or net (Aig.Network.add_or net t1 t2) t3)
      x;
    !c
  in
  let eq2 =
    Aig.Network.add_and net
      (Aig.Lit.not_ (borrow a b))
      (Aig.Lit.not_ (borrow b a))
  in
  ignore (Aig.Network.add_po net eq);
  ignore (Aig.Network.add_po net eq2);
  Format.printf "built:    %a@." Aig.Network.pp_stats net;

  (* 2. Map to 4-LUTs and simulate: compile a kernel plan once per
     instruction style (STP selection cascades, or the per-bit baseline),
     then execute it. *)
  let lut = Klut.Mapper.map ~k:4 net in
  Format.printf "mapped:   %a@." Klut.Network.pp_stats lut;
  let pats = Sim.Patterns.random ~seed:7L ~num_pis:8 ~num_patterns:1024 in
  let simulate style =
    Sim.Kernel.execute (Sim.Kernel.compile_klut ~style lut) pats
  in
  assert (simulate `Bitblast = simulate `Stp);
  Format.printf "simulated 1024 patterns; engines agree on all %d nodes@."
    (Klut.Network.num_nodes lut);

  (* 3. Sweep: the two equality implementations must merge. *)
  let swept, stats = Sweep.Stp_sweep.sweep net in
  Format.printf "swept:    %a@." Aig.Network.pp_stats swept;
  Format.printf "stats:    %a@." Sweep.Stats.pp stats;

  (* 4. Verify the sweep. *)
  (match Sweep.Cec.check net swept with
   | Sweep.Cec.Equivalent -> Format.printf "cec:      equivalent@."
   | _ -> failwith "sweeping changed the function!");

  (* Both outputs now come from one cone. *)
  let d0 = Aig.Lit.node (Aig.Network.po swept 0) in
  let d1 = Aig.Lit.node (Aig.Network.po swept 1) in
  Format.printf "outputs share a driver: %b@." (d0 = d1)

(* Equivalence checking two implementations of the same arithmetic:
   a ripple-carry adder against a carry-lookahead adder, first with
   simulation as a fast filter, then with the CEC engine; and a negative
   case showing counter-example extraction.

     dune exec examples/equivalence_checking.exe
*)

open Stp_sweep

let () =
  let rca = Gen.Arith.ripple_adder ~width:32 in
  let cla = Gen.Arith.carry_lookahead_adder ~width:32 in
  Format.printf "ripple-carry:    %a@." Aig.Network.pp_stats rca;
  Format.printf "carry-lookahead: %a@.@." Aig.Network.pp_stats cla;

  (* Fast path: random simulation comparing output signatures. *)
  let pats = Sim.Patterns.random ~seed:3L ~num_pis:64 ~num_patterns:4096 in
  let simulate net = Sim.Kernel.execute (Sim.Kernel.compile_aig net) pats in
  let t_r = simulate rca and t_c = simulate cla in
  let sig_of net tbl o =
    Sim.Bitwise.po_signature tbl ~num_patterns:4096 ~lit:(Aig.Network.po net o)
  in
  let mismatches = ref 0 in
  for o = 0 to Aig.Network.num_pos rca - 1 do
    if sig_of rca t_r o <> sig_of cla t_c o then incr mismatches
  done;
  Format.printf "4096 random patterns: %d output mismatches@." !mismatches;

  (* Complete check: SAT-backed CEC. *)
  (match Sweep.Cec.check rca cla with
   | Sweep.Cec.Equivalent -> Format.printf "cec: adders are equivalent@.@."
   | _ -> failwith "adders must be equivalent");

  (* Negative case: break the CLA's bit 17 and extract a witness. *)
  let broken = Aig.Network.create () in
  let pis = Array.init 64 (fun _ -> Aig.Network.add_pi broken) in
  let map = Array.make (Aig.Network.num_nodes cla) (-1) in
  map.(0) <- Aig.Lit.false_;
  Aig.Network.iter_nodes cla (fun nd ->
      match Aig.Network.kind cla nd with
      | Aig.Network.Const -> ()
      | Aig.Network.Pi i -> map.(nd) <- pis.(i)
      | Aig.Network.And ->
        let tr l = Aig.Lit.xor_compl map.(Aig.Lit.node l) (Aig.Lit.is_compl l) in
        map.(nd) <-
          Aig.Network.add_and broken
            (tr (Aig.Network.fanin0 cla nd))
            (tr (Aig.Network.fanin1 cla nd)));
  Array.iteri
    (fun o l ->
      let tl = Aig.Lit.xor_compl map.(Aig.Lit.node l) (Aig.Lit.is_compl l) in
      ignore (Aig.Network.add_po broken (if o = 17 then Aig.Lit.not_ tl else tl)))
    (Aig.Network.pos cla);
  match Sweep.Cec.check rca broken with
  | Sweep.Cec.Different { po; counterexample } ->
    let word lo =
      let v = ref 0 in
      for i = 31 downto 0 do
        v := (!v lsl 1) lor (if counterexample.(lo + i) then 1 else 0)
      done;
      !v
    in
    Format.printf "broken adder caught at output %d@." po;
    Format.printf "counterexample: a=%d b=%d@." (word 0) (word 32)
  | _ -> failwith "the broken adder must be caught"

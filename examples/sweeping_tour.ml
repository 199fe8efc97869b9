(* A tour of the SAT-sweeping ecosystem (the paper's Fig. 2): take a
   redundancy-laden circuit, walk it through both sweeping engines, and
   show where the STP machinery earns its keep.

     dune exec examples/sweeping_tour.exe
*)

open Stp_sweep

let () =
  (* A carry-lookahead adder spliced with extra equivalent logic: the
     kind of structural redundancy synthesis leaves behind. *)
  let base = Gen.Arith.carry_lookahead_adder ~width:24 in
  let net = Gen.Redundant.inject ~seed:11L ~fraction:0.35 base in
  Format.printf "input:          %a@." Aig.Network.pp_stats net;
  Format.printf "  (%d gates of injected redundancy)@.@."
    (Aig.Network.num_ands net - Aig.Network.num_ands base);

  (* Step 1 of the ecosystem: initial simulation. Random patterns give
     candidate equivalence classes. *)
  let pats = Sim.Patterns.random ~seed:1L ~num_pis:(Aig.Network.num_pis net)
      ~num_patterns:256 in
  let plan = Sim.Kernel.compile_aig net in
  let tbl = Sim.Kernel.execute plan pats in
  let classes = Sweep.Equiv_classes.create ~num_patterns:256 in
  Aig.Network.iter_nodes net (fun nd -> Sweep.Equiv_classes.add classes nd tbl.(nd));
  Format.printf "after 256 random patterns: %d candidate classes, %d nodes in them@."
    (Sweep.Equiv_classes.class_count classes)
    (List.length (Sweep.Equiv_classes.candidate_nodes classes));

  (* Step 2: SAT-guided patterns thin the false candidates. *)
  let guided = Sweep.Guided_patterns.generate net pats ~seed:2L in
  let tbl = Sim.Kernel.execute plan pats in
  let classes = Sweep.Equiv_classes.create ~num_patterns:(Sim.Patterns.num_patterns pats) in
  Aig.Network.iter_nodes net (fun nd -> Sweep.Equiv_classes.add classes nd tbl.(nd));
  Format.printf
    "after %d guided patterns (%d SAT queries): %d classes, %d nodes@.@."
    guided.Sweep.Guided_patterns.patterns_added
    guided.Sweep.Guided_patterns.queries
    (Sweep.Equiv_classes.class_count classes)
    (List.length (Sweep.Equiv_classes.candidate_nodes classes));

  (* Step 3: the full engines. *)
  let swept_f, st_f = Sweep.Fraig.sweep net in
  Format.printf "&fraig-style:   %a@." Aig.Network.pp_stats swept_f;
  Format.printf "                %a@." Sweep.Stats.pp st_f;
  let swept_s, st_s = Sweep.Stp_sweep.sweep net in
  Format.printf "STP sweeper:    %a@." Aig.Network.pp_stats swept_s;
  Format.printf "                %a@.@." Sweep.Stats.pp st_s;

  Format.printf "satisfiable SAT calls: %d (baseline) vs %d (STP)@."
    st_f.Sweep.Stats.sat_sat st_s.Sweep.Stats.sat_sat;
  Format.printf "total SAT calls:       %d vs %d@."
    (Sweep.Stats.total_sat_calls st_f) (Sweep.Stats.total_sat_calls st_s);

  (* Step 4: both engines must preserve the function — &cec. *)
  (match Sweep.Cec.check net swept_f, Sweep.Cec.check net swept_s with
   | Sweep.Cec.Equivalent, Sweep.Cec.Equivalent ->
     Format.printf "cec: both results equivalent to the input@."
   | _ -> failwith "sweeping broke the circuit");

  (* And against the original pre-injection adder as well. *)
  match Sweep.Cec.check base swept_s with
  | Sweep.Cec.Equivalent ->
    Format.printf "cec: swept result equals the original adder@."
  | _ -> failwith "result differs from the original adder"

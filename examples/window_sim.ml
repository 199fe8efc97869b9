(* Section III-C / Fig. 1 of the paper: specified-node simulation with
   the circuit-cut algorithm.

   The network: five PIs, six 2-input NAND LUTs
       6 = NAND(1,3)   7 = NAND(2,3)   8 = NAND(7,4)
       9 = NAND(4,5)  10 = NAND(6,7)  11 = NAND(8,9)
   with po1 = 10, po2 = 11, and the paper's ten simulation patterns.

     dune exec examples/window_sim.exe
*)

open Stp_sweep
module K = Klut.Network

let () =
  let net = K.create () in
  let pi = Array.init 5 (fun _ -> K.add_pi net) in
  let nand = Tt.Truth_table.of_bin "0111" in
  let n6 = K.add_lut net [| pi.(0); pi.(2) |] nand in
  let n7 = K.add_lut net [| pi.(1); pi.(2) |] nand in
  let n8 = K.add_lut net [| n7; pi.(3) |] nand in
  let n9 = K.add_lut net [| pi.(3); pi.(4) |] nand in
  let n10 = K.add_lut net [| n6; n7 |] nand in
  let n11 = K.add_lut net [| n8; n9 |] nand in
  ignore (K.add_po net n10 false);
  ignore (K.add_po net n11 false);
  Format.printf "network: %a@." K.pp_stats net;
  let label =
    let tbl =
      [ (n6, "6"); (n7, "7"); (n8, "8"); (n9, "9"); (n10, "10"); (n11, "11") ]
      @ Array.to_list (Array.mapi (fun i p -> (p, string_of_int (i + 1))) pi)
    in
    fun n -> List.assoc n tbl
  in

  (* The paper's ten patterns (row p = values of PI p across patterns). *)
  let pats =
    Sim.Patterns.of_rows
      [ "0101010101"; "1010101010"; "1111100000"; "0000011111"; "0011001100" ]
  in
  Format.printf "patterns: %d  =>  cut limit log2(10) = 3@.@."
    (Sim.Patterns.num_patterns pats);

  (* Cut the whole circuit as the figure does (targets: the two POs plus
     the specified nodes 7 and 8). *)
  let { Sim.Circuit_cut.network = cut_net; node_map; roots } =
    Sim.Circuit_cut.cut net ~limit:3 ~targets:[ n10; n11; n7; n8 ]
  in
  Format.printf "cuts (root <- leaves):@.";
  List.iter
    (fun root ->
      let fanins = K.fanins cut_net node_map.(root) in
      let orig new_id =
        let found = ref "?" in
        Array.iteri (fun o m -> if m = new_id then found := label o) node_map;
        !found
      in
      Format.printf "  %s <- {%s}@." (label root)
        (String.concat ", " (Array.to_list (Array.map orig fanins))))
    roots;

  (* Mode s: signatures of the specified nodes 7 and 8 only. *)
  let specified = Sim.Circuit_cut.simulate net pats ~targets:[ n7; n8 ] in
  let show (node, s) =
    let bits =
      String.init
        (Sim.Patterns.num_patterns pats)
        (fun i -> if Sim.Signature.get s i then '1' else '0')
    in
    Format.printf "  node %s: %s@." (label node) bits
  in
  Format.printf "@.specified-node signatures under the ten patterns:@.";
  List.iter show specified;

  (* Exhaustive windows: node 7 depends on 2 PIs (4 patterns suffice),
     node 8 on 3 PIs (8 patterns) — the paper's 2^2 / 2^3 observation. *)
  Format.printf "@.exhaustive window truth tables:@.";
  List.iter
    (fun (n, pis) ->
      let e = Sim.Patterns.exhaustive ~num_pis:pis in
      (* Build the sub-network view through the cut over those PIs by
         simulating the full network on patterns that only vary the
         node's support. *)
      ignore e;
      let tbl =
        Sim.Kernel.execute
          (Sim.Kernel.compile_klut ~style:`Stp net)
          (Sim.Patterns.exhaustive ~num_pis:5)
      in
      let bits =
        String.init (1 lsl pis) (fun i ->
            (* The support of node 7 is PIs 2,3; of node 8 PIs 2,3,4 —
               expand index i onto those positions. *)
            let assignment =
              match (n, pis) with
              | _, 2 -> (i land 1) lsl 1 lor ((i lsr 1) land 1) lsl 2
              | _ -> (i land 1) lsl 1 lor ((i lsr 1) land 1) lsl 2 lor ((i lsr 2) land 1) lsl 3
            in
            if Sim.Signature.get tbl.(n) assignment then '1' else '0')
      in
      Format.printf "  node %s over %d leaves: %s@." (label n) pis bits)
    [ (n7, 2); (n8, 3) ]

module T = Tt.Truth_table

(* The STP engine, as thin wrappers over the compiled kernel plan
   ({!Kernel}): narrow LUTs (k <= 8) run as compiled selection cascades
   ({!Stp.Cascade}), wide LUTs (cut-composed cones) as matrix passes.
   The cascade compilation cache is the kernel's bounded one; by default
   the process-wide shared instance, so repeated simulations — across
   passes, and across daemon requests — reuse each other's cascades. *)

let simulate_klut ?(domains = 1) ?cache net pats =
  Kernel.execute ~domains (Kernel.compile_klut ?cache ~style:`Stp net) pats

let simulate_aig ?(domains = 1) net pats =
  (* The 2-input structural matrix of an AND with complement flags folded
     in reduces to word logic; this engine matches the bitwise one and
     exists so Table I's T_A column can be measured for "STP" too. *)
  Kernel.execute ~domains (Kernel.compile_aig net) pats

let floor_log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

let simulate_specified ?domains net pats ~targets =
  let limit = min 16 (max 2 (floor_log2 (max 2 (Patterns.num_patterns pats)))) in
  let { Circuit_cut.network = cut_net; node_map; roots = _ } =
    Circuit_cut.cut net ~limit ~targets
  in
  let tbl = simulate_klut ?domains cut_net pats in
  List.map
    (fun t ->
      let mapped = node_map.(t) in
      assert (mapped >= 0);
      (t, tbl.(mapped)))
    targets

module A = Aig.Network
module L = Aig.Lit
module Sg = Sim.Signature
module Rng = Sutil.Rng

type outcome = {
  patterns_added : int;
  proven_const : (int * bool) list;
  queries : int;
}

let generate ?(max_queries = 256) ?(low_ratio = 0.02) ?conflict_limit
    ?deadline net pats ~seed =
  let rng = Rng.create seed in
  let solver = Sat.Solver.create () in
  let env = Sat.Tseitin.create net solver in
  let queries = ref 0 in
  let added = ref 0 in
  let consts = ref [] in
  (* Proven-constant flags, updated the moment a query proves one: an
     O(1) check per node instead of a per-round [List.memq] scan of a
     snapshot (O(ANDs x consts), and blind to constants proven earlier
     in the same pass over the network). *)
  let proven = Bytes.make (max 1 (A.num_nodes net)) '\000' in
  let np () = Sim.Patterns.num_patterns pats in
  let expired () =
    match deadline with Some d -> Obs.Clock.now () > d | None -> false
  in
  (* Ask for a pattern on which [node] takes [want]; append it padded with
     random values on PIs outside the encoded cone. *)
  let query node want =
    incr queries;
    match
      Sat.Tseitin.check_const ?conflict_limit ?deadline env
        (L.of_node node false) (not want)
    with
    | Sat.Tseitin.Counterexample ce ->
      Sim.Patterns.add_pattern_randomized pats rng
        (Array.map (fun b -> Some b) ce);
      incr added;
      true
    | Sat.Tseitin.Equivalent ->
      (* node is constantly [not want]. *)
      consts := (node, not want) :: !consts;
      Bytes.set proven node '\001';
      false
    | Sat.Tseitin.Undetermined | Sat.Tseitin.Uncertified _ -> false
  in
  (* The network does not change here, only the pattern set grows: one
     plan serves both rounds. *)
  let plan = Sim.Kernel.compile_aig net in
  let round threshold =
    let tbl = Sim.Kernel.execute plan pats in
    let n = np () in
    let lo = int_of_float (ceil (threshold *. float_of_int n)) in
    A.iter_ands net (fun nd ->
        if !queries < max_queries && (not (expired ()))
           && Bytes.get proven nd = '\000'
        then begin
          let ones = Sg.count_ones tbl.(nd) in
          if ones <= lo then ignore (query nd true)
          else if n - ones <= lo then ignore (query nd false)
        end)
  in
  (* Round one: strict constants. Round two: rare values. *)
  round 0.0;
  if not (expired ()) then round low_ratio;
  { patterns_added = !added; proven_const = List.rev !consts; queries = !queries }

module A = Aig.Network
module L = Aig.Lit

type outcome = {
  patterns_added : int;
  proven_const : (int * bool) list;
  queries : int;
}

let generate ?(max_queries = 256) ?(low_ratio = 0.02) ?conflict_limit
    ?deadline net pats =
  let env = Sat.Tseitin.create net (Sat.Solver.create ()) in
  let cut = Cut_window.create () in
  let examined = ref 0 and queries = ref 0 and added = ref 0 in
  let consts = ref [] in
  (* Proven-constant flags: an O(1) check per node, current from the
     moment a node is proven. *)
  let proven = Bytes.make (max 1 (A.num_nodes net)) '\000' in
  let expired () =
    match deadline with Some d -> Obs.Clock.now () > d | None -> false
  in
  let const node v =
    consts := (node, v) :: !consts;
    Bytes.set proven node '\001'
  in
  (* A pattern on which [node] takes [want]. The cut tier goes first: a
     node it proves equal or complementary to node 0 needs no query. *)
  let query node want =
    incr examined;
    match Cut_window.verdict cut net node 0 with
    | `Equal -> const node false
    | `Compl -> const node true
    | `Unknown -> (
      incr queries;
      match
        Sat.Tseitin.check_const ?conflict_limit ?deadline env
          (L.of_node node false) (not want)
      with
      | Sat.Tseitin.Counterexample ce ->
        Sim.Patterns.add_pattern pats ce;
        incr added
      | Sat.Tseitin.Equivalent -> const node (not want)
      | Sat.Tseitin.Undetermined | Sat.Tseitin.Uncertified _ -> ())
  in
  (* The network does not change here, only the pattern set grows: one
     plan serves both rounds. *)
  let plan = Sim.Kernel.compile_aig net in
  let round threshold =
    let tbl = Sim.Kernel.execute plan pats in
    let n = Sim.Patterns.num_patterns pats in
    let lo = int_of_float (ceil (threshold *. float_of_int n)) in
    A.iter_ands net (fun nd ->
        if !examined < max_queries && (not (expired ()))
           && Bytes.get proven nd = '\000'
        then begin
          let ones = Sim.Signature.count_ones tbl.(nd) in
          if ones <= lo then query nd true
          else if n - ones <= lo then query nd false
        end)
  in
  (* Round one: strict constants. Round two: rare values. *)
  round 0.0;
  if not (expired ()) then round low_ratio;
  { patterns_added = !added; proven_const = List.rev !consts; queries = !queries }

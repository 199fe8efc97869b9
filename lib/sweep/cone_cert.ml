module A = Aig.Network
module L = Aig.Lit
module Solver = Sat.Solver
module Drup = Sat.Drup
module Tseitin = Sat.Tseitin

type t = {
  pc_net : A.t;
  pc_key : string;
  pc_leaves : int array;
  pc_a : L.t;
  pc_b : L.t;
}

let extract net a b =
  let roots = [ L.node a; L.node b ] in
  let cone = Aig.Cone.tfi net roots in
  (* Source nodes are already strashed, so re-adding a cone in topological
     order folds nothing: the copy is structure-preserving and its node
     numbering is a pure function of the cone's shape. *)
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
  {
    pc_net;
    pc_key = Digest.to_hex (Digest.string (Buffer.contents buf));
    pc_leaves = Array.of_list (List.rev !leaves);
    pc_a;
    pc_b;
  }

(* The encoding below is the deterministic heart of the scheme: both
   [solve] and [replay] build their clause databases through this one
   function, so the solver-variable numbering and the input-clause
   stream are identical on both sides and a recorded certificate means
   the same thing when replayed in another process. Mirrors
   [Tseitin.check_equiv]'s miter exactly (m <-> a xor b, s -> m). *)
let encode pc solver =
  let env = Tseitin.create pc.pc_net solver in
  let a = Tseitin.lit_of env pc.pc_a and b = Tseitin.lit_of env pc.pc_b in
  let m = Solver.lit (Solver.new_var solver) in
  let sl = Solver.lit (Solver.new_var solver) in
  Solver.add_clause solver [ Solver.neg m; a; b ];
  Solver.add_clause solver [ Solver.neg m; Solver.neg a; Solver.neg b ];
  Solver.add_clause solver [ m; Solver.neg a; b ];
  Solver.add_clause solver [ m; a; Solver.neg b ];
  Solver.add_clause solver [ Solver.neg sl; m ];
  (env, sl)

type entry = E_equiv of int array list | E_diff of bool array

type outcome =
  | O_equiv of int array list
  | O_diff of bool array
  | O_undet
  | O_uncert of string

type stats = { s_retries : int; s_solver : Solver.stats }

let solve ?(conflict_limits = []) ?deadline ~certify pc =
  let solver = Solver.create () in
  let checker = if certify then Some (Drup.create ()) else None in
  let learns = ref [] in
  Solver.set_proof_logger solver
    (Some
       (fun step ->
         (match step with
          | Solver.P_learn c -> learns := c :: !learns
          | Solver.P_input _ | Solver.P_delete _ -> ());
         match checker with Some ck -> Drup.feed ck step | None -> ()));
  let env, sl = encode pc solver in
  let assumptions = [ sl ] in
  let solve conflict_limit =
    Solver.solve ?conflict_limit ?deadline ~assumptions solver
  in
  (* Every listed limit is passed as given (the pool does the same), so
     a limit of 0 gives up at the first conflict here too; only the
     empty schedule means one unbudgeted call. *)
  let rec run retries = function
    | [] -> (solve None, retries)
    | [ limit ] -> (solve (Some limit), retries)
    | limit :: rest -> (
      match solve (Some limit) with
      | Solver.Unknown -> run (retries + 1) rest
      | r -> (r, retries))
  in
  let result, retries = run 0 conflict_limits in
  let cert () = List.rev !learns in
  let outcome =
    match result with
    | Solver.Unknown -> O_undet
    | Solver.Unsat -> (
      match checker with
      | None -> O_equiv (cert ())
      | Some ck -> (
        match Drup.certify_unsat ck ~assumptions with
        | Ok () -> O_equiv (cert ())
        | Error why -> O_uncert why))
    | Solver.Sat -> (
      let ce =
        Array.init (A.num_pis pc.pc_net) (fun i ->
            let n = A.pi_node pc.pc_net i in
            Tseitin.is_encoded env n
            && Solver.value solver (Solver.lit (Tseitin.var_of_node env n)))
      in
      match checker with
      | None -> O_diff ce
      | Some ck -> (
        match Drup.certify_model ck ~value:(Solver.value solver) with
        | Ok () -> O_diff ce
        | Error why -> O_uncert why))
  in
  (outcome, { s_retries = retries; s_solver = Solver.stats solver })

let replay pc proof =
  (* No solving: the encoding pass streams the input clauses into a
     fresh checker via the proof logger, then every certificate clause
     must be RUP against the database built so far. Deletions recorded
     by the producer are irrelevant — RUP is monotone in the database,
     so checking against the superset is sound (and the cones are small
     enough that the extra clauses cost nothing). *)
  let solver = Solver.create () in
  let checker = Drup.create () in
  Drup.attach checker solver;
  let _env, sl = encode pc solver in
  let rec go = function
    | [] -> Drup.certify_unsat checker ~assumptions:[ sl ]
    | c :: rest -> (
      match Drup.add_derived checker (Array.to_list c) with
      | Ok () -> go rest
      | Error why -> Error ("certificate clause rejected: " ^ why))
  in
  go proof

module J = Obs.Json

let entry_to_json = function
  | E_equiv proof ->
    J.Obj
      [
        ("v", J.Int 1);
        ("verdict", J.String "equiv");
        ( "proof",
          J.List
            (List.map
               (fun c -> J.List (Array.to_list (Array.map (fun l -> J.Int l) c)))
               proof) );
      ]
  | E_diff ce ->
    let b = Bytes.create (Array.length ce) in
    Array.iteri (fun i v -> Bytes.set b i (if v then '1' else '0')) ce;
    J.Obj
      [
        ("v", J.Int 1);
        ("verdict", J.String "diff");
        ("ce", J.String (Bytes.to_string b));
      ]

let entry_of_json j =
  match J.member "v" j with
  | Some (J.Int 1) -> (
    match J.member "verdict" j with
    | Some (J.String "equiv") -> (
      match J.member "proof" j with
      | Some (J.List clauses) -> (
        let ok = ref true in
        let proof =
          List.map
            (fun c ->
              match c with
              | J.List lits ->
                Array.of_list
                  (List.map
                     (function
                       | J.Int l when l >= 0 -> l
                       | _ ->
                         ok := false;
                         0)
                     lits)
              | _ ->
                ok := false;
                [||])
            clauses
        in
        match !ok with
        | true -> Ok (E_equiv proof)
        | false -> Error "malformed proof clause")
      | _ -> Error "equiv entry without proof")
    | Some (J.String "diff") -> (
      match J.member "ce" j with
      | Some (J.String bits)
        when String.for_all (fun c -> c = '0' || c = '1') bits ->
        Ok (E_diff (Array.init (String.length bits) (fun i -> bits.[i] = '1')))
      | _ -> Error "diff entry without valid ce")
    | _ -> Error "unknown verdict")
  | _ -> Error "unsupported entry version"

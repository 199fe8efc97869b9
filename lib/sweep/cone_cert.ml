module A = Aig.Network
module L = Aig.Lit
module Solver = Sat.Solver
module Drup = Sat.Drup
module Vec = Sutil.Vec
module IH = Hashtbl.Make (Int)

type t = {
  pc_net : A.t;
  pc_key : string;
  pc_leaves : int array;
  pc_a : L.t;
  pc_b : L.t;
}

(* Decimal digits straight into the key buffer, with no [Printf] per
   AND. Every number in a key is a node count or a literal, so
   non-negative. *)
let rec add_int buf n =
  if n >= 10 then add_int buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let extract net a b =
  (* Only the cone is walked and allocated, never an array sized by the
     source network: [map] starts as the visited set of the walk and
     then holds each cone node's literal in the copy. *)
  let map = IH.create 64 and cone = Vec.create () in
  let visit n =
    if n > 0 && not (IH.mem map n) then begin
      IH.add map n L.false_;
      Vec.push cone n
    end
  in
  visit (L.node a);
  visit (L.node b);
  (* [cone] doubles as the worklist. *)
  let i = ref 0 in
  while !i < Vec.length cone do
    let n = Vec.get cone !i in
    incr i;
    if A.is_and net n then begin
      visit (L.node (A.fanin0 net n));
      visit (L.node (A.fanin1 net n))
    end
  done;
  let cone = Vec.to_array cone in
  Array.sort Int.compare cone;
  (* Source nodes are already strashed, so re-adding a cone in topological
     order folds nothing: the copy is structure-preserving and its node
     numbering is a pure function of the cone's shape. *)
  let pc_net = A.create ~capacity:(Array.length cone + 1) () in
  let tr l =
    if L.node l = 0 then l
    else L.xor_compl (IH.find map (L.node l)) (L.is_compl l)
  in
  let leaves = Vec.create () in
  Array.iter
    (fun n ->
      match A.kind net n with
      | A.Const -> ()
      | A.Pi i ->
        IH.replace map n (A.add_pi pc_net);
        Vec.push leaves i
      | A.And ->
        IH.replace map n
          (A.add_and pc_net (tr (A.fanin0 net n)) (tr (A.fanin1 net n))))
    cone;
  let pc_a = tr a and pc_b = tr b in
  (* "v1 pi=P;" then "f0,f1;" per AND of the copy, then "r=a,b". *)
  let buf = Buffer.create (32 + (16 * Array.length cone)) in
  let put n sep =
    add_int buf n;
    Buffer.add_char buf sep
  in
  Buffer.add_string buf "v1 pi=";
  put (A.num_pis pc_net) ';';
  A.iter_ands pc_net (fun n ->
      put (A.fanin0 pc_net n) ',';
      put (A.fanin1 pc_net n) ';');
  Buffer.add_string buf "r=";
  put pc_a ',';
  add_int buf pc_b;
  {
    pc_net;
    pc_key = Digest.to_hex (Digest.string (Buffer.contents buf));
    pc_leaves = Vec.to_array leaves;
    pc_a;
    pc_b;
  }

(* The canonical CNF, the deterministic heart of the scheme (contract in
   the .mli). The numbering is the one the lazy Tseitin encoding of the
   sweepers gives, which v1 certificates on disk were recorded with:
   fanin0 before fanin1, a node numbered on first visit and its clauses
   emitted once both fanins are numbered. *)
let encode pc emit =
  let net = pc.pc_net in
  let var = Array.make (A.num_nodes net) (-1) in
  let count = ref 0 in
  let rec var_of n =
    if var.(n) >= 0 then var.(n)
    else begin
      let v = !count in
      incr count;
      var.(n) <- v;
      (match A.kind net n with
       | A.Const -> emit [ Solver.lit_of v true ]
       | A.Pi _ -> ()
       | A.And ->
         let a = lit_of (A.fanin0 net n) in
         let b = lit_of (A.fanin1 net n) in
         let pv = Solver.lit v in
         emit [ Solver.neg pv; a ];
         emit [ Solver.neg pv; b ];
         emit [ pv; Solver.neg a; Solver.neg b ]);
      v
    end
  and lit_of l = Solver.lit_of (var_of (L.node l)) (L.is_compl l) in
  let a = lit_of pc.pc_a in
  let b = lit_of pc.pc_b in
  let m = Solver.lit !count and s = Solver.lit (!count + 1) in
  count := !count + 2;
  emit [ Solver.neg m; a; b ];
  emit [ Solver.neg m; Solver.neg a; Solver.neg b ];
  emit [ m; Solver.neg a; b ];
  emit [ m; a; Solver.neg b ];
  emit [ Solver.neg s; m ];
  (!count, var)

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
  let count, var =
    encode pc (fun c ->
        (* The solver wants each variable created before a clause
           mentions it; creating them in numbering order keeps its
           numbering the encoding's. *)
        List.iter
          (fun l ->
            while Solver.num_vars solver <= l lsr 1 do
              ignore (Solver.new_var solver)
            done)
          c;
        Solver.add_clause solver c)
  in
  let assumptions = [ Solver.lit (count - 1) ] in
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
            let v = var.(A.pi_node pc.pc_net i) in
            v >= 0 && Solver.value solver (Solver.lit v))
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
  (* No solver: the encoder streams the input clauses straight into a
     fresh checker, then every certificate clause must be RUP against
     the database built so far. Deletions recorded by the producer are
     irrelevant — RUP is monotone in the database, so checking against
     the superset is sound (and the cones are small enough that the
     extra clauses cost nothing). A literal outside the encoding is
     refused before it reaches the checker, which would otherwise size
     its per-variable arrays by it: [solve] never emits one. *)
  let checker = Drup.create () in
  let count, _ = encode pc (Drup.add_input checker) in
  let in_encoding c = Array.for_all (fun l -> l lsr 1 < count) c in
  let rec go = function
    | [] -> Drup.certify_unsat checker ~assumptions:[ Solver.lit (count - 1) ]
    | c :: _ when not (in_encoding c) ->
      Error "certificate clause names a variable outside the encoding"
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

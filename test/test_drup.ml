(* Certification tests: the DRUP checker against the solver's proof
   stream. Every UNSAT answer must come with a replayable refutation,
   every SAT answer with a model the checker accepts; corrupting any
   single proof line must make the standalone replay reject; and the
   lying-solver fault sites must be caught by certified mode. *)

module S = Sat.Solver
module D = Sat.Dimacs
module Dr = Sat.Drup
module Rng = Sutil.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_faults spec f =
  (match Obs.Fault.configure spec with
   | Ok () -> ()
   | Error e -> Alcotest.failf "bad fault spec %S: %s" spec e);
  Fun.protect ~finally:Obs.Fault.reset f

(* A solver with an attached checker; returns both. *)
let certified_solver () =
  let s = S.create () in
  let c = Dr.create () in
  Dr.attach c s;
  (s, c)

let random_cnf rng ~num_vars ~num_clauses =
  List.init num_clauses (fun _ ->
      List.init 3 (fun _ ->
          S.lit_of (Rng.int rng num_vars) (Rng.bool rng))
      |> List.sort_uniq compare)

let declare_vars s clauses =
  let max_var =
    List.fold_left
      (List.fold_left (fun m l -> max m (l lsr 1)))
      (-1) clauses
  in
  for _ = 0 to max_var - S.num_vars s do
    ignore (S.new_var s)
  done

let php_clauses ~pigeons ~holes =
  (* Variable p(i,j) = i * holes + j. *)
  let v i j = S.lit_of ((i * holes) + j) false in
  let at_least =
    List.init pigeons (fun i -> List.init holes (fun j -> v i j))
  in
  let at_most = ref [] in
  for j = 0 to holes - 1 do
    for i1 = 0 to pigeons - 1 do
      for i2 = i1 + 1 to pigeons - 1 do
        at_most := [ S.neg (v i1 j); S.neg (v i2 j) ] :: !at_most
      done
    done
  done;
  at_least @ !at_most

(* ---- online certification over random CNF ---- *)

let arb_cnf =
  QCheck.make
    ~print:(fun (seed, nv, nc) ->
      Printf.sprintf "seed=%Ld vars=%d clauses=%d" seed nv nc)
    QCheck.Gen.(
      let* seed = ui64 in
      let* nv = int_range 3 9 in
      (* Clause/variable ratios straddling the 3-SAT phase transition so
         both answers are exercised. *)
      let* nc = int_range nv (6 * nv) in
      return (seed, nv, nc))

let prop_certified_answers (seed, num_vars, num_clauses) =
  let rng = Rng.create seed in
  let clauses = random_cnf rng ~num_vars ~num_clauses in
  let s, c = certified_solver () in
  for _ = 1 to num_vars do
    ignore (S.new_var s)
  done;
  List.iter (S.add_clause s) clauses;
  (match S.solve s with
  | S.Unsat ->
    (match Dr.certify_unsat c ~assumptions:[] with
     | Ok () -> ()
     | Error why -> Alcotest.failf "unsat not certified: %s" why)
  | S.Sat ->
    (match Dr.certify_model c ~value:(S.value s) with
     | Ok () -> ()
     | Error why -> Alcotest.failf "model rejected: %s" why);
    (* The model accessor is total over all declared variables. *)
    check_int "model is total" num_vars (Array.length (S.model s))
  | S.Unknown -> Alcotest.fail "unbudgeted solve returned Unknown");
  (* An honest solver never has a derivation rejected. *)
  check_int "no rejections" 0 (Dr.num_rejected c);
  true

(* ---- certification across learnt-DB reduction and arena GC ---- *)

let test_certified_with_gc () =
  (* php(6,5) with the learnt ceiling pinned at the clamp minimum:
     reductions kill clauses mid-refutation and compaction recycles
     their arena slots while the proof is still being built. Deletions
     are streamed at kill time, before any compaction, so the checker's
     database stays in sync and the refutation must still certify. *)
  let s, c = certified_solver () in
  S.set_max_learnts s 2 (* clamps to 16 *);
  let clauses = php_clauses ~pigeons:6 ~holes:5 in
  declare_vars s clauses;
  List.iter (S.add_clause s) clauses;
  (match S.solve s with
   | S.Unsat -> ()
   | _ -> Alcotest.fail "php(6,5) must be unsat");
  let st = S.stats s in
  check "reductions fired" true (st.S.reductions > 0);
  check "arena GC fired" true (S.gc_count s > 0);
  (match Dr.certify_unsat c ~assumptions:[] with
   | Ok () -> ()
   | Error why -> Alcotest.failf "refutation with GC not certified: %s" why);
  check_int "no rejections" 0 (Dr.num_rejected c);
  check "deletions reached the checker" true (Dr.num_deleted c > 0)

let arb_cnf_reduce =
  (* Larger than [arb_cnf] so a ceiling-16 learnt DB actually hits
     reduction on a fair share of the instances. *)
  QCheck.make
    ~print:(fun (seed, nv, nc) ->
      Printf.sprintf "seed=%Ld vars=%d clauses=%d" seed nv nc)
    QCheck.Gen.(
      let* seed = ui64 in
      let* nv = int_range 8 20 in
      let* nc = int_range (3 * nv) (5 * nv) in
      return (seed, nv, nc))

let prop_certified_with_reduction (seed, num_vars, num_clauses) =
  let rng = Rng.create seed in
  let clauses = random_cnf rng ~num_vars ~num_clauses in
  let s, c = certified_solver () in
  S.set_max_learnts s 2;
  for _ = 1 to num_vars do
    ignore (S.new_var s)
  done;
  List.iter (S.add_clause s) clauses;
  let certify assumptions =
    match S.solve ~assumptions s with
    | S.Unsat -> (
      match Dr.certify_unsat c ~assumptions with
      | Ok () -> ()
      | Error why -> Alcotest.failf "unsat not certified: %s" why)
    | S.Sat -> (
      match Dr.certify_model c ~value:(S.value s) with
      | Ok () -> ()
      | Error why -> Alcotest.failf "model rejected: %s" why)
    | S.Unknown -> Alcotest.fail "unbudgeted solve returned Unknown"
  in
  certify [];
  (* A second, assumption-bound solve on the same (possibly reduced and
     compacted) database must certify too. *)
  certify [ S.lit_of (Rng.int rng num_vars) (Rng.bool rng) ];
  check_int "no rejections" 0 (Dr.num_rejected c);
  true

(* ---- proof text round-trip: stream -> DRUP file -> standalone replay ---- *)

let capture_proof_text s =
  let buf = Buffer.create 256 in
  S.set_proof_logger s
    (Some
       (fun step ->
         Option.iter (Buffer.add_string buf) (D.proof_line step)));
  buf

let replay clauses steps =
  (* Strict standalone replay, like [sat_cli --check-proof]: first
     unjustified addition fails; the replayed database must be refuted. *)
  let c = Dr.create () in
  List.iter (Dr.add_input c) clauses;
  let failure = ref None in
  List.iteri
    (fun i step ->
      if !failure = None then
        match step with
        | `Add lits -> (
          match Dr.add_derived c lits with
          | Ok () -> ()
          | Error why -> failure := Some (Printf.sprintf "step %d: %s" (i + 1) why))
        | `Delete lits -> Dr.delete c lits)
    steps;
  match !failure with
  | Some why -> Error why
  | None -> Dr.certify_unsat c ~assumptions:[]

let test_proof_roundtrip () =
  let clauses = php_clauses ~pigeons:4 ~holes:3 in
  let s = S.create () in
  let buf = capture_proof_text s in
  declare_vars s clauses;
  List.iter (S.add_clause s) clauses;
  (match S.solve s with
   | S.Unsat -> ()
   | _ -> Alcotest.fail "php(4,3) must be unsat");
  let steps = D.parse_proof (Buffer.contents buf) in
  check "proof has additions" true (steps <> []);
  match replay clauses steps with
  | Ok () -> ()
  | Error why -> Alcotest.failf "round-tripped proof rejected: %s" why

let test_proof_roundtrip_with_deletions () =
  (* Same round-trip, but with the learnt ceiling forcing reductions:
     the textual proof now carries [d] lines, and the strict standalone
     replay must apply them and still reach the refutation. *)
  let clauses = php_clauses ~pigeons:6 ~holes:5 in
  let s = S.create () in
  S.set_max_learnts s 2;
  let buf = capture_proof_text s in
  declare_vars s clauses;
  List.iter (S.add_clause s) clauses;
  (match S.solve s with
   | S.Unsat -> ()
   | _ -> Alcotest.fail "php(6,5) must be unsat");
  check "reductions fired" true ((S.stats s).S.reductions > 0);
  let steps = D.parse_proof (Buffer.contents buf) in
  let deletions =
    List.length (List.filter (function `Delete _ -> true | _ -> false) steps)
  in
  check "proof has deletions" true (deletions > 0);
  match replay clauses steps with
  | Ok () -> ()
  | Error why -> Alcotest.failf "proof with deletions rejected: %s" why

let test_proof_mutations () =
  (* Corrupt one proof line at a time: replacing any addition with a
     unit clause of a fresh, unconstrained variable must fail the strict
     replay — such a clause is never RUP on a non-refuted database. *)
  let clauses = php_clauses ~pigeons:4 ~holes:3 in
  let s = S.create () in
  let buf = capture_proof_text s in
  declare_vars s clauses;
  List.iter (S.add_clause s) clauses;
  (match S.solve s with
   | S.Unsat -> ()
   | _ -> Alcotest.fail "php(4,3) must be unsat");
  let steps = D.parse_proof (Buffer.contents buf) in
  let junk = `Add [ S.lit_of 1000 false ] in
  let mutated = ref 0 in
  List.iteri
    (fun k _ ->
      (* Only positions the replay reaches on a not-yet-refuted database
         are meaningful: past the refutation every addition is implied. *)
      let prefix = List.filteri (fun i _ -> i < k) steps in
      let c = Dr.create () in
      List.iter (Dr.add_input c) clauses;
      List.iter
        (fun step ->
          match step with
          | `Add lits -> ignore (Dr.add_derived c lits)
          | `Delete lits -> Dr.delete c lits)
        prefix;
      if not (Dr.conflicting c) then begin
        incr mutated;
        let proof = List.mapi (fun i st -> if i = k then junk else st) steps in
        match replay clauses proof with
        | Ok () -> Alcotest.failf "mutation at step %d went undetected" (k + 1)
        | Error _ -> ()
      end)
    steps;
  check "mutations were exercised" true (!mutated > 0);
  (* Truncating the proof before the refutation must also fail. *)
  match replay clauses [] with
  | Ok () -> Alcotest.fail "empty proof certified a refutation"
  | Error _ -> ()

(* ---- checker semantics: deletions and assumptions ---- *)

let test_deletion_breaks_rup () =
  (* From (a or b) and (!a or b), the unit b is RUP; after deleting
     (a or b) it no longer is. *)
  let a = S.lit_of 0 false and b = S.lit_of 1 false in
  let fresh () =
    let c = Dr.create () in
    Dr.add_input c [ a; b ];
    Dr.add_input c [ S.neg a; b ];
    c
  in
  let c = fresh () in
  (match Dr.add_derived c [ b ] with
   | Ok () -> ()
   | Error why -> Alcotest.failf "b should be RUP: %s" why);
  check_int "checked" 1 (Dr.num_checked c);
  let c = fresh () in
  Dr.delete c [ a; b ];
  check_int "deleted" 1 (Dr.num_deleted c);
  (match Dr.add_derived c [ b ] with
   | Ok () -> Alcotest.fail "b must not be RUP after deletion"
   | Error _ -> ());
  check_int "rejected" 1 (Dr.num_rejected c);
  check "last error kept" true (Dr.last_error c <> None)

let test_deletion_of_root_reason_skipped () =
  (* Deleting the reason of a root-level propagation is the classic DRUP
     checker unsoundness; the checker must refuse. *)
  let a = S.lit_of 0 false in
  let c = Dr.create () in
  Dr.add_input c [ a ];
  Dr.delete c [ a ];
  check_int "deletion skipped" 0 (Dr.num_deleted c);
  (* The unit still propagates: assuming !a must conflict. *)
  match Dr.certify_unsat c ~assumptions:[ S.neg a ] with
  | Ok () -> ()
  | Error why -> Alcotest.failf "root unit lost: %s" why

(* Is [l] RUP against the database? Asked through an assumption, which
   leaves the database as it was. *)
let rup c l = Result.is_ok (Dr.certify_unsat c ~assumptions:[ S.neg l ])

let test_deletion_of_duplicates () =
  (* (a or b) twice plus (!a or b): one deletion leaves a copy, so b is
     still RUP; the second deletion removes it. *)
  let a = S.lit_of 0 false and b = S.lit_of 1 false in
  let c = Dr.create () in
  Dr.add_input c [ a; b ];
  Dr.add_input c [ a; b ];
  Dr.add_input c [ S.neg a; b ];
  Dr.delete c [ b; a ];
  check_int "one copy deleted" 1 (Dr.num_deleted c);
  check "b still RUP" true (rup c b);
  Dr.delete c [ b; a ];
  check_int "both copies deleted" 2 (Dr.num_deleted c);
  check "b no longer RUP" false (rup c b)

let test_deletion_after_watch_moves () =
  (* The root unit !a makes propagation move (a or b or c)'s watch off
     [a], permuting the stored literals; deletion matches by set. *)
  let a = S.lit_of 0 false and b = S.lit_of 1 false and d = S.lit_of 2 false in
  let c = Dr.create () in
  Dr.add_input c [ a; b; d ];
  Dr.add_input c [ S.neg a ];
  Dr.delete c [ d; b; a ];
  check_int "deleted" 1 (Dr.num_deleted c)

let test_deletion_index_built_late () =
  (* The chain x0 -> x1 -> ... -> x100 as 100 clauses, none deleted
     before: the first deletion builds the index and must hit the link
     it names; a link added after that must be deletable too. *)
  let x i = S.lit_of i false in
  let link i = [ S.neg (x i); x (i + 1) ] in
  let c = Dr.create () in
  for i = 0 to 99 do
    Dr.add_input c (link i)
  done;
  let chain_holds ~from =
    Result.is_ok (Dr.certify_unsat c ~assumptions:[ x from; S.neg (x 100) ])
  in
  check "chain holds" true (chain_holds ~from:0);
  Dr.delete c (List.rev (link 37));
  check_int "first deletion hit" 1 (Dr.num_deleted c);
  check "link 37 gone" false (chain_holds ~from:0);
  check "rest of the chain intact" true (chain_holds ~from:38);
  Dr.add_input c (link 37);
  check "link 37 restored" true (chain_holds ~from:0);
  Dr.delete c (link 37);
  check_int "deletion of a clause added after the index" 2 (Dr.num_deleted c);
  check "link 37 gone again" false (chain_holds ~from:0)

let test_deletion_of_unknown_clause () =
  (* Never added: nothing changes, whether the deletion builds the
     index or finds it built. *)
  let a = S.lit_of 0 false and b = S.lit_of 1 false and d = S.lit_of 2 false in
  let c = Dr.create () in
  Dr.add_input c [ a; b ];
  Dr.add_input c [ S.neg a; b ];
  Dr.delete c [ a; d ];
  Dr.delete c [ S.neg b ];
  check_int "nothing deleted" 0 (Dr.num_deleted c);
  check "b still RUP" true (rup c b);
  Dr.delete c [ a; b ];
  Dr.delete c [ a; b ];
  check_int "only the known clause deleted" 1 (Dr.num_deleted c)

let test_certify_under_assumptions () =
  (* x -> y -> z: unsat under {x, !z}, satisfiable under {x}. *)
  let x = S.lit_of 0 false and y = S.lit_of 1 false and z = S.lit_of 2 false in
  let c = Dr.create () in
  Dr.add_input c [ S.neg x; y ];
  Dr.add_input c [ S.neg y; z ];
  (match Dr.certify_unsat c ~assumptions:[ x; S.neg z ] with
   | Ok () -> ()
   | Error why -> Alcotest.failf "implication chain not certified: %s" why);
  (match Dr.certify_unsat c ~assumptions:[ x ] with
   | Ok () -> Alcotest.fail "certified a satisfiable assumption set"
   | Error _ -> ());
  (* The rollback left the checker reusable. *)
  match Dr.certify_unsat c ~assumptions:[ x; S.neg z ] with
  | Ok () -> ()
  | Error why -> Alcotest.failf "checker not reusable after rollback: %s" why

let test_certify_model_rejects_falsifying () =
  let a = S.lit_of 0 false and b = S.lit_of 1 false in
  let c = Dr.create () in
  Dr.add_input c [ a; b ];
  Dr.add_input c [ S.neg a ];
  (match Dr.certify_model c ~value:(fun l -> l = S.neg a || l = b) with
   | Ok () -> ()
   | Error why -> Alcotest.failf "good model rejected: %s" why);
  match Dr.certify_model c ~value:(fun l -> l = a || l = b) with
  | Ok () -> Alcotest.fail "model falsifying !a accepted"
  | Error _ -> ()

(* ---- the lying solver ---- *)

let test_lying_flip_unsat () =
  (* A satisfiable instance reported UNSAT: no refutation exists in the
     proof stream, so certification must fail. *)
  with_faults "sat.flip_unsat" (fun () ->
      let s, c = certified_solver () in
      let v = S.lit (S.new_var s) in
      let w = S.lit (S.new_var s) in
      S.add_clause s [ v; w ];
      match S.solve s with
      | S.Unsat -> (
        match Dr.certify_unsat c ~assumptions:[] with
        | Ok () -> Alcotest.fail "flipped answer was certified"
        | Error _ -> ())
      | _ -> Alcotest.fail "fault did not flip the answer")

let test_lying_corrupt_proof () =
  (* Corrupted derivations must be rejected by the online check. The
     answer itself (php is really unsat) may still certify — RUP only
     ever admits sound consequences — but the lie is visible in the
     rejection counter. *)
  with_faults "sat.corrupt_proof" (fun () ->
      let s, c = certified_solver () in
      let clauses = php_clauses ~pigeons:4 ~holes:3 in
      declare_vars s clauses;
      List.iter (S.add_clause s) clauses;
      (match S.solve s with
       | S.Unsat -> ()
       | _ -> Alcotest.fail "php(4,3) must be unsat");
      check "corrupt derivations rejected" true (Dr.num_rejected c > 0))

let test_lying_bogus_model () =
  (* A flipped propagated variable falsifies that variable's reason
     clause; model validation must see it. *)
  with_faults "sat.bogus_model" (fun () ->
      let s, c = certified_solver () in
      let x = S.lit (S.new_var s) in
      let y = S.lit (S.new_var s) in
      S.add_clause s [ S.neg x; y ];
      S.add_clause s [ x; y ];
      match S.solve s with
      | S.Sat -> (
        match Dr.certify_model c ~value:(S.value s) with
        | Ok () -> Alcotest.fail "bogus model was certified"
        | Error _ -> ())
      | _ -> Alcotest.fail "satisfiable instance must answer Sat")

let () =
  Alcotest.run "drup"
    [
      ( "online",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"random 3-CNF answers certify" ~count:200
               arb_cnf prop_certified_answers);
          Alcotest.test_case "certified across reduction and GC" `Quick
            test_certified_with_gc;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make
               ~name:"random runs certify with forced reduction" ~count:100
               arb_cnf_reduce prop_certified_with_reduction);
        ] );
      ( "replay",
        [
          Alcotest.test_case "proof text round-trips" `Quick
            test_proof_roundtrip;
          Alcotest.test_case "deletions replay" `Quick
            test_proof_roundtrip_with_deletions;
          Alcotest.test_case "single-line mutations rejected" `Quick
            test_proof_mutations;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "deletion breaks RUP" `Quick
            test_deletion_breaks_rup;
          Alcotest.test_case "root reason deletion skipped" `Quick
            test_deletion_of_root_reason_skipped;
          Alcotest.test_case "duplicate deletion" `Quick
            test_deletion_of_duplicates;
          Alcotest.test_case "deletion after watches moved" `Quick
            test_deletion_after_watch_moves;
          Alcotest.test_case "deletion index built late" `Quick
            test_deletion_index_built_late;
          Alcotest.test_case "unknown clause deletion" `Quick
            test_deletion_of_unknown_clause;
          Alcotest.test_case "assumption certification" `Quick
            test_certify_under_assumptions;
          Alcotest.test_case "model validation" `Quick
            test_certify_model_rejects_falsifying;
        ] );
      ( "lying solver",
        [
          Alcotest.test_case "flip_unsat caught" `Quick test_lying_flip_unsat;
          Alcotest.test_case "corrupt_proof caught" `Quick
            test_lying_corrupt_proof;
          Alcotest.test_case "bogus_model caught" `Quick test_lying_bogus_model;
        ] );
    ]

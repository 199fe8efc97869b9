(* Pass-manager tests: the script grammar (positioned errors), the
   pipeline runner (random scripts preserve the function, per-pass times
   sum below the total), budget semantics across a script (expired
   deadline skips remaining transforms, verify still runs), and the
   legacy-flow equivalence (the compiled default script produces the
   same network as calling the stages directly). *)

module Rng = Sutil.Rng
module Pass = Stp_sweep.Pass
module Script = Stp_sweep.Script

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let quiet = ignore

let qcheck_case ~name ~count arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

(* A small redundant network the sweepers have real work on. *)
let redundant_net seed =
  let rng = Rng.create seed in
  let base = Gen.Arith.ripple_adder ~width:5 in
  Gen.Redundant.inject ~seed:(Rng.int64 rng) ~fraction:0.4 base

(* ---- grammar ---- *)

let test_parse_valid () =
  let cmds = Script.parse "sweep -e stp; rewrite -k 4; balance; verify" in
  check_int "four commands" 4 (List.length cmds);
  let names = List.map (fun ((t : Script.token), _) -> t.Script.text) cmds in
  check "names" true (names = [ "sweep"; "rewrite"; "balance"; "verify" ]);
  let passes =
    Script.compile "sweep -e fraig --conflict-limit 5 --retry-schedule 10,100; ps"
  in
  check_int "two passes" 2 (List.length passes);
  let sweep = List.hd passes in
  check_str "engine arg" "fraig" (List.assoc "engine" sweep.Pass.args);
  check_str "retry arg" "10,100" (List.assoc "retry-schedule" sweep.Pass.args);
  check "sweep transforms" true sweep.Pass.transform;
  check "ps reports" false (List.nth passes 1).Pass.transform;
  (* Whitespace and separators are free-form. *)
  check_int "packed separators" 3
    (List.length (Script.compile "sweep;rewrite ;\n balance"))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let expect_error script substr =
  match Script.compile script with
  | _ -> Alcotest.failf "expected Parse_error for %S" script
  | exception Script.Parse_error msg ->
    if not (contains msg substr) then
      Alcotest.failf "error %S does not mention %S" msg substr

let test_parse_errors () =
  expect_error "sweep; rewrit; balance" "col 8: unknown pass 'rewrit'";
  expect_error "sweeep" "col 1: unknown pass";
  expect_error "sweep -z" "col 7: unknown flag '-z'";
  expect_error "sweep -e" "col 7: flag '-e' expects a value";
  expect_error "sweep -e bogus" "col 7: unknown engine 'bogus'";
  expect_error "rewrite -k four" "col 9: expected an integer";
  expect_error "sweep --sat-domains 0" "col 7: sat-domains must be at least 1";
  expect_error "sweep -e fraig --sat-domains -2" "col 16: sat-domains";
  expect_error "sweep --conflict-limit 0" "col 7: conflict-limit must be at least 1";
  expect_error "sweep --retry-schedule 100,-1"
    "col 7: retry-schedule must be at least 1, got -1";
  expect_error "sweep --retry-schedule 10"
    "col 7: retry-schedule needs --conflict-limit";
  expect_error "sweep -e fraig --retry-schedule 10 --sat-domains 2"
    "col 16: retry-schedule needs --conflict-limit";
  expect_error "sweep; balance;" "col 15: dangling ';'";
  expect_error ";sweep" "col 1: empty command";
  expect_error "" "empty script";
  expect_error "   " "empty script";
  expect_error "rewrite extra" "col 9: unexpected argument 'extra'";
  expect_error "42pass" "col 1: expected a pass name"

(* ---- random pipelines preserve the function ---- *)

let pass_pool =
  [|
    "sweep -e stp";
    "sweep -e fraig";
    "sweep -e stp --conflict-limit 20 --retry-schedule 50,200";
    "rewrite";
    "rewrite -k 3";
    "balance";
    "cleanup";
    "ps";
  |]

let arb_script =
  QCheck.make
    ~print:(fun (seed, picks) ->
      Printf.sprintf "seed=%Ld script=%S" seed
        (String.concat "; "
           (List.map (fun i -> pass_pool.(i)) picks)))
    QCheck.Gen.(
      let* seed = ui64 in
      let* picks = list_size (int_range 1 4) (int_bound (Array.length pass_pool - 1)) in
      let picks = match picks with [] -> [ 0 ] | l -> l in
      return (seed, picks))

let prop_random_script_equivalent (seed, picks) =
  let script = String.concat "; " (List.map (fun i -> pass_pool.(i)) picks) in
  let net = redundant_net seed in
  let ctx = Pass.create_ctx ~echo:quiet net in
  let t0 = Obs.Clock.now () in
  let final, records = Pass.run_pipeline ctx (Script.compile script) net in
  let total = Obs.Clock.now () -. t0 in
  let times = List.fold_left (fun acc r -> acc +. r.Pass.r_wall_s) 0. records in
  List.length records = List.length picks
  && List.for_all (fun r -> r.Pass.r_skipped = None) records
  && times <= total +. 1e-6
  && Sweep.Cec.check net final = Sweep.Cec.Equivalent

(* ---- budget semantics across a script ---- *)

let test_budget_mid_script () =
  let net = redundant_net 11L in
  let ctx =
    Pass.create_ctx ~budget:(Obs.Budget.create ~timeout:0.05 ()) ~echo:quiet net
  in
  (* A pass that burns past the deadline: everything after it must be
     skipped — except verify, which judges the degraded pipeline. *)
  let burn =
    {
      Pass.name = "burn";
      args = [];
      transform = true;
      run =
        (fun _ n ->
          Unix.sleepf 0.12;
          (n, Obs.Json.Null));
    }
  in
  let passes = (burn :: Script.compile "sweep; rewrite; balance; verify") in
  let final, records = Pass.run_pipeline ctx passes net in
  check_int "every pass reported" 5 (List.length records);
  let by_name n = List.find (fun r -> r.Pass.r_name = n) records in
  check "burn ran" true ((by_name "burn").Pass.r_skipped = None);
  List.iter
    (fun n ->
      check (n ^ " skipped") true
        ((by_name n).Pass.r_skipped = Some "deadline"))
    [ "sweep"; "rewrite"; "balance" ];
  check "verify still ran" true ((by_name "verify").Pass.r_skipped = None);
  check "verify verdict recorded" true
    (Pass.last_verdict ctx = Some "equivalent");
  check_int "skipped count" 3 (Pass.skipped_count records);
  check "network unchanged" true (final == net);
  (* Skipped transforms report identity before/after sizes. *)
  let r = by_name "rewrite" in
  check_int "skipped before=after" r.Pass.r_ands_before r.Pass.r_ands_after

let test_unlimited_budget_runs_all () =
  let net = redundant_net 5L in
  let ctx = Pass.create_ctx ~echo:quiet net in
  let _, records =
    Pass.run_pipeline ctx (Script.compile "sweep; rewrite; balance; verify") net
  in
  check_int "no skips" 0 (Pass.skipped_count records);
  check "equivalent" true (Pass.last_verdict ctx = Some "equivalent");
  check "no difference" false (Pass.any_different ctx)

(* ---- legacy flow equivalence ---- *)

let test_matches_direct_calls () =
  let net = redundant_net 7L in
  let ctx = Pass.create_ctx ~echo:quiet net in
  let final, _ =
    Pass.run_pipeline ctx (Script.compile "sweep -e stp; rewrite; balance") net
  in
  let swept, _ = Sweep.Stp_sweep.sweep net in
  let rewritten, _ = Synth.Rewrite.rewrite swept in
  let balanced, _ = Aig.Balance.balance rewritten in
  check_str "same network as the hardcoded flow" (Aig.Aiger.write balanced)
    (Aig.Aiger.write final);
  (* The sweep flags map onto the engine preset. On b18 each flag
     changes the result (no limit, or a limit without the retry, sweep
     to different sizes), so a dropped flag shows up as other bytes. *)
  let b18 = Gen.Suites.hwmcc_by_name "b18" in
  let ctx = Pass.create_ctx ~echo:quiet b18 in
  let final, _ =
    Pass.run_pipeline ctx
      (Script.compile "sweep -e fraig --conflict-limit 1 --retry-schedule 2")
      b18
  in
  let swept, _ =
    Sweep.Fraig.sweep
      ~config:
        {
          Sweep.Engine.fraig_config with
          conflict_limits = [ 1; 2 ];
        }
      b18
  in
  check_int "flags map onto the engine config (size)" (Aig.Network.num_ands swept)
    (Aig.Network.num_ands final);
  check "flags map onto the engine config (bytes)" true
    (Aig.Aiger.write swept = Aig.Aiger.write final)

(* ---- verify checkpointing and reports ---- *)

let test_verify_checkpoint () =
  let net = redundant_net 3L in
  let ctx = Pass.create_ctx ~echo:quiet net in
  let _, records =
    Pass.run_pipeline ctx (Script.compile "sweep; verify; balance; verify") net
  in
  check_int "no skips" 0 (Pass.skipped_count records);
  let verdicts = List.filter (fun r -> r.Pass.r_name = "verify") records in
  check_int "two verifies" 2 (List.length verdicts);
  (* The second verify checks against the first checkpoint (the swept
     network), not the input — both must pass. *)
  check "all equivalent" true
    (List.for_all
       (fun r ->
         match Obs.Json.member "cec" r.Pass.r_detail with
         | Some (Obs.Json.String "equivalent") -> true
         | _ -> false)
       verdicts)

let test_record_json_shape () =
  let net = redundant_net 9L in
  let ctx = Pass.create_ctx ~echo:quiet net in
  let _, records = Pass.run_pipeline ctx (Script.compile "sweep -e fraig; ps") net in
  let r = List.hd records in
  let j = Pass.record_json r in
  check "pass name" true (Obs.Json.member "pass" j = Some (Obs.Json.String "sweep"));
  check "args rendered" true
    (match Obs.Json.member "args" j with
    | Some (Obs.Json.Obj [ ("engine", Obs.Json.String "fraig") ]) -> true
    | _ -> false);
  check "wall time present" true
    (match Obs.Json.member "wall_s" j with
    | Some (Obs.Json.Float t) -> t >= 0.
    | _ -> false);
  (* Round-trips through the JSON printer/parser. *)
  check "round-trip" true
    (Obs.Json.of_string (Obs.Json.to_string j) = Ok j);
  let ps = List.nth records 1 in
  check "ps detail is network stats" true
    (match Obs.Json.member "ands" ps.Pass.r_detail with
    | Some (Obs.Json.Int _) -> true
    | _ -> false)

let () =
  Alcotest.run "pass"
    [
      ( "grammar",
        [
          Alcotest.test_case "valid scripts" `Quick test_parse_valid;
          Alcotest.test_case "positioned errors" `Quick test_parse_errors;
        ] );
      ( "pipeline",
        [
          qcheck_case ~name:"random scripts preserve the function" ~count:15
            arb_script prop_random_script_equivalent;
          Alcotest.test_case "matches the hardcoded flow" `Quick
            test_matches_direct_calls;
          Alcotest.test_case "verify checkpoints" `Quick test_verify_checkpoint;
          Alcotest.test_case "record json" `Quick test_record_json_shape;
        ] );
      ( "budget",
        [
          Alcotest.test_case "expired mid-script" `Quick test_budget_mid_script;
          Alcotest.test_case "unlimited runs all" `Quick
            test_unlimited_budget_runs_all;
        ] );
    ]

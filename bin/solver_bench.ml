(* Reproducible solver bench harness.

     dune exec bin/solver_bench.exe -- --json BENCH_solver.json
     dune exec bin/solver_bench.exe -- --suites php,xor --min-time 0.5

   Every suite is a deterministic workload (Gen.Cnf instances, an
   incremental assumption loop, or a full STP sweep), so two checkouts
   run the same search and their conflicts/sec compare directly. Small
   instances are repeated until a minimum cumulative wall time so the
   rate estimates are not noise. Known answers are asserted: a bench
   run that produces a wrong verdict exits 1 — the harness never
   reports a speed for a broken solver. *)

open Stp_sweep

type suite_row = {
  suite : string;
  instances : int;
  runs : int;
  wall_s : float;
  decisions : int;
  conflicts : int;
  propagations : int;
  learned : int;
  sat : int;
  unsat : int;
  unknown : int;
}

let row_json r =
  let open Obs.Json in
  let rate n = if r.wall_s > 0. then float_of_int n /. r.wall_s else 0. in
  Obj
    [
      ("suite", String r.suite);
      ("instances", Int r.instances);
      ("runs", Int r.runs);
      ("wall_s", Float r.wall_s);
      ("decisions", Int r.decisions);
      ("conflicts", Int r.conflicts);
      ("propagations", Int r.propagations);
      ("learned", Int r.learned);
      ("conflicts_per_sec", Float (rate r.conflicts));
      ("propagations_per_sec", Float (rate r.propagations));
      ( "answers",
        Obj [ ("sat", Int r.sat); ("unsat", Int r.unsat); ("unknown", Int r.unknown) ]
      );
    ]

let empty_row suite instances =
  {
    suite;
    instances;
    runs = 0;
    wall_s = 0.;
    decisions = 0;
    conflicts = 0;
    propagations = 0;
    learned = 0;
    sat = 0;
    unsat = 0;
    unknown = 0;
  }

let note_answer row (r : Sat.Solver.result) =
  match r with
  | Sat.Solver.Sat -> { row with sat = row.sat + 1 }
  | Sat.Solver.Unsat -> { row with unsat = row.unsat + 1 }
  | Sat.Solver.Unknown -> { row with unknown = row.unknown + 1 }

let add_stats row (s : Sat.Solver.stats) wall =
  {
    row with
    runs = row.runs + 1;
    wall_s = row.wall_s +. wall;
    decisions = row.decisions + s.Sat.Solver.decisions;
    conflicts = row.conflicts + s.Sat.Solver.conflicts;
    propagations = row.propagations + s.Sat.Solver.propagations;
    learned = row.learned + s.Sat.Solver.learned;
  }

let check_expect inst (r : Sat.Solver.result) =
  match (inst.Gen.Cnf.expect, r) with
  | `Sat, Sat.Solver.Unsat | `Unsat, Sat.Solver.Sat ->
    Printf.eprintf "solver_bench: WRONG ANSWER on %s\n" inst.Gen.Cnf.name;
    exit 1
  | _, Sat.Solver.Unknown ->
    Printf.eprintf "solver_bench: unbudgeted Unknown on %s\n" inst.Gen.Cnf.name;
    exit 1
  | _ -> ()

(* One timed pass over a Gen.Cnf instance on a fresh solver. *)
let run_instance inst =
  let s = Sat.Solver.create () in
  for _ = 1 to inst.Gen.Cnf.num_vars do
    ignore (Sat.Solver.new_var s)
  done;
  let t0 = Obs.Clock.now () in
  List.iter (Sat.Solver.add_clause s) inst.Gen.Cnf.clauses;
  let r = Sat.Solver.solve s in
  let wall = Obs.Clock.now () -. t0 in
  check_expect inst r;
  (Sat.Solver.stats s, r, wall)

let run_cnf_suite ~min_time name instances =
  let row = ref (empty_row name (List.length instances)) in
  (* Repeat the whole suite until the cumulative wall time is large
     enough to trust the rate; each repetition is an identical search. *)
  let reps = ref 0 in
  while !reps = 0 || ((!row).wall_s < min_time && !reps < 1000) do
    incr reps;
    List.iter
      (fun inst ->
        let stats, r, wall = run_instance inst in
        row := note_answer (add_stats !row stats wall) r)
      instances
  done;
  !row

(* Incremental workload: one long-lived solver, thousands of solve
   calls under rotating assumptions, fresh clauses trickling in — the
   shape of a sweeping run, and the case that exercises learnt-DB
   reduction and arena reclamation. *)
let run_incremental () =
  let base =
    Gen.Cnf.random3 ~seed:0x14C0L ~num_vars:200 ~ratio:3.0
  in
  let rng = Sutil.Rng.create 0xB135L in
  let s = Sat.Solver.create () in
  for _ = 1 to base.Gen.Cnf.num_vars do
    ignore (Sat.Solver.new_var s)
  done;
  let t0 = Obs.Clock.now () in
  List.iter (Sat.Solver.add_clause s) base.Gen.Cnf.clauses;
  let row = ref (empty_row "incremental" 1) in
  for round = 1 to 3000 do
    let lit () =
      Sat.Solver.lit_of
        (Sutil.Rng.int rng base.Gen.Cnf.num_vars)
        (Sutil.Rng.bool rng)
    in
    if round mod 50 = 0 then
      (* Trickle in a fresh ternary clause, like a growing miter. *)
      Sat.Solver.add_clause s [ lit (); lit (); lit () ];
    let assumptions = [ lit (); lit () ] in
    let r = Sat.Solver.solve ~assumptions ~conflict_limit:500 s in
    row := note_answer !row r
  done;
  let wall = Obs.Clock.now () -. t0 in
  row := add_stats !row (Sat.Solver.stats s) wall;
  !row

(* End-to-end sweeping: the solver under its real driver. Conflicts
   here come from miter queries over Tseitin cones, the workload the
   whole overhaul is for. The multiplier's miters are the hard ones, so
   this row is SAT-dominated; [wall_s] counts only the engine's SAT
   phase, making the rate a solver rate (EXPERIMENTS.md documents
   this). *)
let run_sweep () =
  let net =
    Gen.Redundant.inject ~seed:21L ~fraction:0.3
      (Gen.Arith.wallace_multiplier ~width:16)
  in
  let _result, stats = Sweep.Stp_sweep.sweep net in
  {
    (empty_row "sweep-mult16" 1) with
    runs = 1;
    wall_s = List.assoc "sat" (Sweep.Stats.phase_times stats);
    decisions = stats.Sweep.Stats.sat_decisions;
    conflicts = stats.Sweep.Stats.sat_conflicts;
    propagations = stats.Sweep.Stats.sat_propagations;
    learned = stats.Sweep.Stats.sat_learned;
    unsat = stats.Sweep.Stats.sat_unsat;
    sat = stats.Sweep.Stats.sat_sat;
    unknown = stats.Sweep.Stats.sat_undet;
  }

let all_suite_names = Gen.Cnf.suite_names @ [ "incremental"; "sweep" ]

let run_suite ~min_time = function
  | "incremental" -> run_incremental ()
  | "sweep" -> run_sweep ()
  | name -> run_cnf_suite ~min_time name (Gen.Cnf.suite name)

let print_table rows =
  Printf.printf "%-16s %6s %10s %12s %12s %14s\n" "suite" "runs" "wall_s"
    "conflicts" "conf/sec" "props/sec";
  print_endline (String.make 75 '-');
  List.iter
    (fun r ->
      let rate n = if r.wall_s > 0. then float_of_int n /. r.wall_s else 0. in
      Printf.printf "%-16s %6d %10.3f %12d %12.0f %14.0f\n" r.suite r.runs
        r.wall_s r.conflicts (rate r.conflicts) (rate r.propagations))
    rows

let run suites min_time json =
  Report.cli_guard @@ fun () ->
  let names =
    match suites with
    | None -> all_suite_names
    | Some s ->
      let names = String.split_on_char ',' s in
      List.iter
        (fun n ->
          if not (List.mem n all_suite_names) then begin
            Printf.eprintf "solver_bench: unknown suite %S (have: %s)\n" n
              (String.concat ", " all_suite_names);
            exit 2
          end)
        names;
      names
  in
  let rows = List.map (run_suite ~min_time) names in
  print_table rows;
  match json with
  | None -> ()
  | Some path ->
    let open Obs.Json in
    to_file path
      (Obj
         (Report.run_meta ~tool:"solver_bench"
         @ [
             ("min_time_s", Float min_time);
             ("suites", List (List.map row_json rows));
           ]))

open Cmdliner

let suites =
  Arg.(
    value
    & opt (some string) None
    & info [ "suites" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated suite subset (php, xor, random3sat, incremental, \
           sweep). Default: all.")

let min_time =
  Arg.(
    value
    & opt float 0.2
    & info [ "min-time" ] ~docv:"SEC"
        ~doc:
          "Repeat each CNF suite until its cumulative wall time reaches \
           this, so rates on small instances are not timer noise.")

let json =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the machine-readable report here.")

let cmd =
  Cmd.v
    (Cmd.info "solver_bench"
       ~doc:"Reproducible SAT-core benchmark suites with JSON reports")
    Term.(const run $ suites $ min_time $ json)

let () = exit (Cmd.eval cmd)

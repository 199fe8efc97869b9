(* Reproducible simulation-kernel bench harness.

     dune exec bin/sim_bench.exe -- --json BENCH_sim.json
     dune exec bin/sim_bench.exe -- --patterns 8192 --min-time 0.5

   One fixture (the EPFL "sin" benchmark, as AIG and as its 6-LUT
   mapping) and its three kernel plans — the AIG plan and both LUT
   instruction styles — each executed at 1/2/4 domains. Before any
   timing, every variant's signature table is compared word-for-word
   against the sequential reference (the AIG plan for the AIG row, the
   bit-blast plan for the LUT rows): the harness exits 1 on the first
   mismatch, so a reported time always belongs to a bit-identical
   plan. The [plans] section prices plan compilation separately from
   execution — the cost the sweep engine amortizes by patching one
   long-lived plan instead of recompiling. The checked-in baseline
   lives at results/BENCH_sim.json. *)

open Stp_sweep

let domains_swept = [ 1; 2; 4 ]

type row = { name : string; domains : int; wall_s : float }

let row_json r =
  let open Obs.Json in
  Obj
    [
      ("name", String r.name);
      ("domains", Int r.domains);
      ("wall_s", Float r.wall_s);
    ]

let run patterns min_time json =
  Report.cli_guard @@ fun () ->
  let aig = Gen.Suites.epfl_by_name "sin" in
  let lut = Klut.Mapper.map ~k:6 aig in
  let pats =
    Sim.Patterns.random ~seed:0xBE7CL
      ~num_pis:(Aig.Network.num_pis aig)
      ~num_patterns:patterns
  in
  (* Long-lived plans, compiled once like the sweep engine does. *)
  let aig_plan = Sim.Kernel.compile_aig aig in
  let stp_plan = Sim.Kernel.compile_klut ~style:`Stp lut in
  let blast_plan = Sim.Kernel.compile_klut ~style:`Bitblast lut in
  let aig_ref = Sim.Kernel.execute aig_plan pats in
  let lut_ref = Sim.Kernel.execute blast_plan pats in
  (* name, reference table, simulate at [domains]. *)
  let engines =
    [
      ( "aig-kernel-plan",
        aig_ref,
        fun d -> Sim.Kernel.execute ~domains:d aig_plan pats );
      ( "lut6-kernel-stp",
        lut_ref,
        fun d -> Sim.Kernel.execute ~domains:d stp_plan pats );
      ( "lut6-kernel-bitblast",
        lut_ref,
        fun d -> Sim.Kernel.execute ~domains:d blast_plan pats );
    ]
  in
  (* Identity gate first: a bench run never reports a speed for an
     engine that diverges from the reference. *)
  List.iter
    (fun (name, reference, simulate) ->
      List.iter
        (fun d ->
          if simulate d <> reference then begin
            Printf.eprintf "sim_bench: %s diverges at %d domain(s)\n" name d;
            exit 1
          end)
        domains_swept)
    engines;
  let rows =
    List.concat_map
      (fun (name, _, simulate) ->
        List.map
          (fun d ->
            let wall =
              Report.time_repeat ~min_time (fun () -> ignore (simulate d))
            in
            { name; domains = d; wall_s = wall })
          domains_swept)
      engines
  in
  let compile_rows =
    [
      ( "compile-aig",
        Report.time_repeat ~min_time (fun () ->
            ignore (Sim.Kernel.compile_aig aig)) );
      ( "compile-lut6-stp",
        (* A private cache so repeated compilations do real work rather
           than hitting the process-wide shared cache. *)
        Report.time_repeat ~min_time (fun () ->
            ignore
              (Sim.Kernel.compile_klut
                 ~cache:(Sim.Kernel.Cache.create ())
                 ~style:`Stp lut)) );
      ( "compile-lut6-bitblast",
        Report.time_repeat ~min_time (fun () ->
            ignore (Sim.Kernel.compile_klut ~style:`Bitblast lut)) );
    ]
  in
  (* Table on stdout, sequential columns plus the 4-domain speedup. *)
  let seq name =
    (List.find (fun r -> r.name = name && r.domains = 1) rows).wall_s
  in
  let par name =
    (List.find (fun r -> r.name = name && r.domains = 4) rows).wall_s
  in
  print_string
    (Report.render_table
       ~header:[ "engine"; "t(1d)"; "t(4d)"; "x4d" ]
       (List.map
          (fun (name, _, _) ->
            [
              name;
              Report.fmt_time (seq name);
              Report.fmt_time (par name);
              Report.fmt_ratio (seq name /. par name);
            ])
          engines));
  List.iter
    (fun (name, wall) -> Printf.printf "%s: %s\n" name (Report.fmt_time wall))
    compile_rows;
  (match json with
  | None -> ()
  | Some path ->
    let open Obs.Json in
    to_file path
      (Obj
         (Report.run_meta ~tool:"sim_bench"
         @ [
             ("patterns", Int patterns);
             ("min_time_s", Float min_time);
             ("bit_identical", Bool true);
             ("engines", List (List.map row_json rows));
             ( "plans",
               Obj (List.map (fun (n, w) -> (n, Float w)) compile_rows) );
           ])));
  (* The headline acceptance ratio: the compiled STP engine must not be
     slower than the baseline bit-blast path sequentially. *)
  Printf.printf "stp-vs-bitblast (lut6, 1 domain): %s\n"
    (Report.fmt_ratio (seq "lut6-kernel-bitblast" /. seq "lut6-kernel-stp"))

open Cmdliner

let patterns =
  Arg.(
    value
    & opt int 2048
    & info [ "patterns" ] ~docv:"N" ~doc:"Simulation patterns per run.")

let min_time =
  Arg.(
    value
    & opt float 0.2
    & info [ "min-time" ] ~docv:"SEC"
        ~doc:"Repeat each measurement until this much cumulative wall time.")

let json =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the machine-readable report here.")

let cmd =
  Cmd.v
    (Cmd.info "sim_bench"
       ~doc:
         "Bit-identity-gated simulation kernel benchmarks with JSON reports")
    Term.(const run $ patterns $ min_time $ json)

let () = exit (Cmd.eval cmd)

(* Regenerates Table II: SAT sweeping on the HWMCC'15 / IWLS'05-family
   redundant benchmarks, baseline &fraig-style engine vs the STP engine.
   Reported per row, for both engines: resulting AND count, satisfiable
   SAT calls, total SAT calls, simulation runtime, total runtime, and
   the runtime ratio. Every result is CEC-verified against the input
   (the paper runs '&cec' the same way). *)

open Stp_sweep

let run ~names ~timeout ~verify ~certify ~json ~trace () =
  Report.cli_guard @@ fun () ->
  if trace then Obs.Span.enable_trace ();
  let suite =
    match names with
    | [] -> Gen.Suites.hwmcc ()
    | names -> List.map (fun n -> Report.load_network ~circuit:n ()) names
  in
  Printf.printf "Table II: SAT sweeping, &fraig-style baseline vs STP engine\n\n";
  let rows = ref [] in
  let json_rows = ref [] in
  let g_sat = ref ([], []) and g_total = ref ([], []) in
  let g_sim = ref ([], []) and g_time = ref ([], []) in
  let g_result = ref ([], []) in
  let push r (a, b) v w = r := (v :: a, w :: b) in
  List.iter
    (fun (name, net) ->
      (* Each engine run gets its own budget so a blown baseline sweep
         does not also starve the STP one. *)
      let config (preset : Sweep.Engine.config) =
        { preset with budget = Some (Obs.Budget.create ?timeout ()); certify }
      in
      let swept_f, st_f =
        Sweep.Fraig.sweep ~config:(config Sweep.Engine.fraig_config) net
      in
      let swept_s, st_s =
        Sweep.Stp_sweep.sweep ~config:(config Sweep.Engine.stp_config) net
      in
      (match (st_f.Sweep.Stats.budget_exhausted, st_s.Sweep.Stats.budget_exhausted) with
      | None, None -> ()
      | f, s ->
        let describe = function
          | Some { Sweep.Stats.reason; phase } ->
            Printf.sprintf "exhausted (%s) during %s" reason phase
          | None -> "in budget"
        in
        Printf.printf "%s: budget — fraig %s, stp %s\n" name (describe f)
          (describe s));
      if verify then begin
        (match Sweep.Cec.check net swept_f with
         | Sweep.Cec.Equivalent -> ()
         | _ -> failwith (name ^ ": fraig result failed CEC"));
        match Sweep.Cec.check net swept_s with
        | Sweep.Cec.Equivalent -> ()
        | _ -> failwith (name ^ ": stp result failed CEC")
      end;
      let open Sweep.Stats in
      push g_sat !g_sat (float_of_int st_f.sat_sat) (float_of_int st_s.sat_sat);
      push g_total !g_total
        (float_of_int (total_sat_calls st_f))
        (float_of_int (total_sat_calls st_s));
      push g_sim !g_sim (simulation_time st_f) (simulation_time st_s);
      push g_time !g_time (total_time st_f) (total_time st_s);
      push g_result !g_result
        (float_of_int (Aig.Network.num_ands swept_f))
        (float_of_int (Aig.Network.num_ands swept_s));
      let engine_json swept st =
        Obs.Json.Obj
          (("result_ands", Obs.Json.Int (Aig.Network.num_ands swept))
          :: (match Sweep.Stats.to_json st with
             | Obs.Json.Obj fields -> fields
             | other -> [ ("sweep", other) ]))
      in
      json_rows :=
        Obs.Json.Obj
          [
            ("name", Obs.Json.String name);
            ("pis", Obs.Json.Int (Aig.Network.num_pis net));
            ("pos", Obs.Json.Int (Aig.Network.num_pos net));
            ("depth", Obs.Json.Int (Aig.Network.depth net));
            ("ands", Obs.Json.Int (Aig.Network.num_ands net));
            ("fraig", engine_json swept_f st_f);
            ("stp", engine_json swept_s st_s);
            ( "runtime_ratio_stp_over_fraig",
              Obs.Json.Float
                (total_time st_s /. Float.max 1e-9 (total_time st_f)) );
          ]
        :: !json_rows;
      rows :=
        [
          name;
          Printf.sprintf "%d/%d" (Aig.Network.num_pis net) (Aig.Network.num_pos net);
          string_of_int (Aig.Network.depth net);
          string_of_int (Aig.Network.num_ands net);
          Printf.sprintf "%d|%d"
            (Aig.Network.num_ands swept_f)
            (Aig.Network.num_ands swept_s);
          Printf.sprintf "%d|%d" st_f.sat_sat st_s.sat_sat;
          Printf.sprintf "%d|%d" (total_sat_calls st_f) (total_sat_calls st_s);
          Printf.sprintf "%s|%s"
            (Report.fmt_time (simulation_time st_f))
            (Report.fmt_time (simulation_time st_s));
          Printf.sprintf "%s|%s" (Report.fmt_time (total_time st_f))
            (Report.fmt_time (total_time st_s));
          Report.fmt_ratio
            (total_time st_s /. Float.max 1e-9 (total_time st_f));
        ]
        :: !rows)
    suite;
  let header =
    [
      "Benchmark"; "PI/PO"; "Lev"; "Gate"; "Result f|s"; "SAT calls f|s";
      "Total calls f|s"; "Sim(s) f|s"; "Runtime(s) f|s"; "x";
    ]
  in
  print_string (Report.render_table ~header (List.rev !rows));
  let ratio (fs, ss) = Report.geomean ss /. Float.max 1e-9 (Report.geomean fs) in
  Printf.printf
    "\nGeo. mean (STP/fraig)  Result: %.2f  SAT calls: %.2f  Total calls: \
     %.2f  Sim time: %.2f  Runtime: %.2f\n"
    (ratio !g_result) (ratio !g_sat) (ratio !g_total) (ratio !g_sim)
    (ratio !g_time);
  Printf.printf
    "(paper: Result 1.00, SAT calls 0.09, Total calls 0.91, Sim time 1.99, \
     Runtime 0.65)\n";
  match json with
  | None -> ()
  | Some path ->
    let open Obs.Json in
    to_file path
      (Obj
         (Report.run_meta ~tool:"table2"
         @ [
             ("verify", Bool verify);
             ("certify", Bool certify);
             ("benchmarks", List (List.rev !json_rows));
             ( "geomean_stp_over_fraig",
               Obj
                 [
                   ("result", Float (ratio !g_result));
                   ("sat_calls", Float (ratio !g_sat));
                   ("total_calls", Float (ratio !g_total));
                   ("sim_time", Float (ratio !g_sim));
                   ("runtime", Float (ratio !g_time));
                 ] );
           ]));
    Printf.printf "wrote: %s\n" path

open Cmdliner

let names =
  Arg.(value & pos_all string [] & info [] ~docv:"NAME" ~doc:"Benchmarks (default: all fifteen).")

let timeout =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SEC"
        ~doc:
          "Per-sweep wall-clock budget; exhausted sweeps degrade to partial \
           (still equivalent) results and report budget_exhausted.")

let verify =
  Arg.(value & flag & info [ "verify" ] ~doc:"CEC-verify every sweep against its input.")

let certify =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:"Run every sweep in certified mode (DRUP proof replay).")

let json =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write a machine-readable run report here.")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ] ~doc:"Stream sweep progress to stderr (or STP_SWEEP_TRACE=1).")

let cmd =
  Cmd.v
    (Cmd.info "table2" ~doc:"Regenerate the paper's Table II (SAT sweeping)")
    Term.(
      const (fun n w v c j t ->
        run ~names:n ~timeout:w ~verify:v ~certify:c ~json:j ~trace:t ())
      $ names $ timeout $ verify $ certify $ json $ trace)

let () = exit (Cmd.eval cmd)

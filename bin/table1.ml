(* Regenerates Table I: circuit simulation runtime on the EPFL-family
   benchmarks. For each circuit three kernel plans are compiled once —
   the AIG plan and the 6-LUT mapping's plan in both instruction
   styles — and executed on one shared pattern set:

     T_A  - the AIG plan. Both of the paper's AIG engines are this one
            plan (an AND's structural matrix over packed words is the
            word AND), so T_A is reported once and its ratio is 1 by
            construction.
     T_L  - 6-LUT simulation, per-bit baseline (`Bitblast`: what an
            off-the-shelf bitwise simulator does to k-LUTs) vs STP
            selection cascades (`Stp`).

   Each plan's compile time has its own column. Every plan runs once,
   untimed, before it is timed, so no first-call warm-up lands in a
   column; that run doubles as the cross-check of the two LUT styles.

   The paper uses 10^6 random patterns on a 3.2 GHz M1; we default to
   10^4 (override with --patterns) so the whole table takes minutes.
   Both styles always see identical patterns, so the "x" column is
   directly comparable with the paper's. *)

open Stp_sweep

let run ~num_patterns ~domains ~names ~json () =
  (match List.filter (fun n -> not (List.mem n Gen.Suites.names_epfl)) names with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown benchmark %s (Table I rows: %s)\n"
      (String.concat ", " unknown)
      (String.concat " " Gen.Suites.names_epfl);
    exit 2);
  let suite =
    match names with
    | [] -> Gen.Suites.epfl ()
    | names -> List.map (fun n -> (n, Gen.Suites.epfl_by_name n)) names
  in
  Printf.printf
    "Table I: circuit simulation, %d random patterns per benchmark, %d domain%s\n\n"
    num_patterns domains
    (if domains = 1 then "" else "s");
  let rows = ref [] in
  let json_rows = ref [] in
  let ratios_tl = ref [] in
  List.iter
    (fun (name, aig) ->
      let lut = Klut.Mapper.map ~k:6 aig in
      let pats =
        Sim.Patterns.random ~seed:0xEB5L ~num_pis:(Aig.Network.num_pis aig)
          ~num_patterns
      in
      let c_aig, aig_plan =
        Obs.Clock.span (fun () -> Sim.Kernel.compile_aig aig)
      in
      let c_blast, blast_plan =
        Obs.Clock.span (fun () -> Sim.Kernel.compile_klut ~style:`Bitblast lut)
      in
      let c_stp, stp_plan =
        Obs.Clock.span (fun () -> Sim.Kernel.compile_klut ~style:`Stp lut)
      in
      let exec plan = Sim.Kernel.execute ~domains plan pats in
      (* Untimed first runs. The styles must agree bit-exactly, and the
         sharded runs must match the sequential bit-blast reference. *)
      ignore (exec aig_plan);
      let reference = Sim.Kernel.execute blast_plan pats in
      if exec blast_plan <> reference || exec stp_plan <> reference then
        failwith (name ^ ": engines disagree — benchmark invalid");
      let time plan = Report.time_repeat (fun () -> ignore (exec plan)) in
      let t_a = time aig_plan in
      let t_l_bitwise = time blast_plan in
      let t_l_stp = time stp_plan in
      let xl = t_l_bitwise /. t_l_stp in
      ratios_tl := xl :: !ratios_tl;
      let open Obs.Json in
      json_rows :=
        Obj
          [
            ("name", String name);
            ("ands", Int (Aig.Network.num_ands aig));
            ("luts", Int (Klut.Network.num_luts lut));
            ("t_a_s", Float t_a);
            ("t_l_bitwise_s", Float t_l_bitwise);
            ("t_l_stp_s", Float t_l_stp);
            ("speedup_t_l", Float xl);
            ( "compile_s",
              Obj
                [
                  ("aig", Float c_aig);
                  ("lut_bitwise", Float c_blast);
                  ("lut_stp", Float c_stp);
                ] );
          ]
        :: !json_rows;
      let ms t = Printf.sprintf "%.2f" (1000. *. t) in
      rows :=
        [
          name;
          string_of_int (Aig.Network.num_ands aig);
          string_of_int (Klut.Network.num_luts lut);
          Report.fmt_time t_a;
          ms c_aig;
          Report.fmt_time t_l_bitwise;
          ms c_blast;
          Report.fmt_time t_l_stp;
          ms c_stp;
          Report.fmt_ratio xl;
        ]
        :: !rows)
    suite;
  let header =
    [
      "Benchmark"; "ands"; "luts"; "T_A(s)"; "+cmp(ms)"; "base T_L(s)";
      "+cmp(ms)"; "STP T_L(s)"; "+cmp(ms)"; "x";
    ]
  in
  print_string (Report.render_table ~header (List.rev !rows));
  Printf.printf
    "\nGeo. mean speedup  T_L: %.2fx   (T_A: one AIG plan, 1x by construction)\n"
    (Report.geomean !ratios_tl);
  Printf.printf "(paper: T_A 0.99x, T_L 7.18x)\n";
  match json with
  | None -> ()
  | Some path ->
    let open Obs.Json in
    to_file path
      (Obj
         (Report.run_meta ~tool:"table1"
         @ [
             ("patterns", Int num_patterns);
             ("domains", Int domains);
             ("benchmarks", List (List.rev !json_rows));
             ( "geomean_speedup",
               Obj [ ("t_l", Float (Report.geomean !ratios_tl)) ] );
           ]));
    Printf.printf "wrote: %s\n" path

open Cmdliner

let patterns =
  let positive =
    Arg.conv'
      ( (fun s ->
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok n
          | _ -> Error (Printf.sprintf "expected an integer >= 1, got '%s'" s)),
        Format.pp_print_int )
  in
  Arg.(value & opt positive 10_000 & info [ "patterns"; "p" ] ~doc:"Random patterns to simulate.")

let domains =
  Arg.(
    value & opt int 1
    & info [ "domains"; "d" ]
        ~doc:
          "OCaml domains for word-sharded parallel simulation (1 = \
           sequential). Results are bit-identical for any value.")

let names =
  Arg.(value & pos_all string [] & info [] ~docv:"NAME" ~doc:"Benchmarks (default: all twenty).")

let json =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write a machine-readable run report here.")

let cmd =
  Cmd.v
    (Cmd.info "table1" ~doc:"Regenerate the paper's Table I (simulation runtime)")
    Term.(
      const (fun p d n j -> run ~num_patterns:p ~domains:d ~names:n ~json:j ())
      $ patterns $ domains $ names $ json)

let () = exit (Cmd.eval cmd)

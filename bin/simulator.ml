(* The 'simulator' command, after ALSO's: simulate a circuit (a named
   generated benchmark or an ASCII-AIGER file) and report plan compile
   time, execution time and a signature digest. --mode aig runs the
   AIG's plan; --mode lut maps to k-LUTs and runs a plan in the
   instruction style --engine selects. *)

open Stp_sweep

let digest tbl =
  (* Cheap order-dependent fold so runs are comparable across engines. *)
  Array.fold_left
    (fun acc s -> Array.fold_left (fun acc w -> (acc * 31) + w land 0xFFFF) acc s)
    17 tbl

let run circuit file engine num_patterns k mode seed () =
  Report.cli_guard @@ fun () ->
  let name, aig = Report.load_network ?circuit ?file () in
  let pats =
    Sim.Patterns.random ~seed:(Int64.of_int seed)
      ~num_pis:(Aig.Network.num_pis aig) ~num_patterns
  in
  Printf.printf "circuit %s: %s\n" name
    (Format.asprintf "%a" Aig.Network.pp_stats aig);
  let label, (t_compile, plan) =
    match mode with
    | `Aig ->
      ("aig", Obs.Clock.span (fun () -> Sim.Kernel.compile_aig aig))
    | `Lut ->
      let lut = Klut.Mapper.map ~k aig in
      Printf.printf "mapped: %s\n" (Format.asprintf "%a" Klut.Network.pp_stats lut);
      ( Printf.sprintf "%d-lut" k,
        Obs.Clock.span (fun () -> Sim.Kernel.compile_klut ~style:engine lut) )
  in
  let t_exec, tbl = Obs.Clock.span (fun () -> Sim.Kernel.execute plan pats) in
  Printf.printf "%s sim: %d patterns, compile %.2fms, execute %.2fms, digest %08x\n"
    label num_patterns (1000. *. t_compile) (1000. *. t_exec)
    (digest tbl land 0xFFFFFFFF)

open Cmdliner

let int_at_least lo =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= lo -> Ok n
        | _ -> Error (Printf.sprintf "expected an integer >= %d, got '%s'" lo s)),
      Format.pp_print_int )

let circuit =
  Arg.(value & opt (some string) None & info [ "circuit"; "c" ] ~doc:"Named generated benchmark.")

let file = Arg.(value & opt (some file) None & info [ "aig" ] ~doc:"ASCII AIGER file.")

let engine =
  Arg.(value & opt (enum [ ("stp", `Stp); ("bitwise", `Bitblast) ]) `Stp
       & info [ "engine"; "e" ]
           ~doc:
             "LUT instruction style for --mode lut: $(b,stp) compiles each \
              narrow LUT to its STP selection cascade, $(b,bitwise) to the \
              per-bit fanin gather of an off-the-shelf simulator.")

let patterns =
  Arg.(value & opt (int_at_least 1) 10_000 & info [ "patterns"; "p" ] ~doc:"Pattern count.")

let k = Arg.(value & opt (int_at_least 2) 6 & info [ "k" ] ~doc:"LUT size for --mode lut.")

let mode =
  Arg.(value & opt (enum [ ("aig", `Aig); ("lut", `Lut) ]) `Lut
       & info [ "mode"; "m" ] ~doc:"Simulate the AIG directly or its k-LUT mapping.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Pattern seed.")

let cmd =
  Cmd.v
    (Cmd.info "simulator" ~doc:"Simulate a circuit through a compiled kernel plan")
    Term.(const (fun a b c d e f g -> run a b c d e f g ())
          $ circuit $ file $ engine $ patterns $ k $ mode $ seed)

let () = exit (Cmd.eval cmd)

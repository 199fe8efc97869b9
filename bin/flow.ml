(* Script-driven optimization flow CLI, ABC-style:

     dune exec bin/flow.exe -- --circuit oski2b1i --verify
     dune exec bin/flow.exe -- --aig design.aag -o out.aag
     dune exec bin/flow.exe -- --circuit voter \
       -c "sweep -e stp; rewrite; balance; sweep -e fraig; verify"

   Without -c, the legacy flags compile into the classic
   sweep -> rewrite -> balance script, so old invocations keep their
   behaviour (and their output network, for a fixed seed). Either way
   the pipeline runs through Pass.run_pipeline: one shared budget
   (--timeout), per-pass JSON records, and PR 3 degradation semantics
   across the whole script. *)

open Stp_sweep

let default_script ~engine ~no_rewrite ~no_balance ~verify =
  let b = Buffer.create 64 in
  Buffer.add_string b
    (match engine with `Stp -> "sweep -e stp" | `Fraig -> "sweep -e fraig");
  if not no_rewrite then Buffer.add_string b "; rewrite";
  if not no_balance then Buffer.add_string b "; balance";
  if verify then Buffer.add_string b "; verify";
  Buffer.contents b

let run circuit file script engine domains sat_domains timeout verify certify
    output no_rewrite no_balance json trace () =
  Report.cli_guard @@ fun () ->
  if trace then Obs.Span.enable_trace ();
  let name, net = Report.load_network ?circuit ?file () in
  let script, passes =
    match script with
    | None ->
      let s = default_script ~engine ~no_rewrite ~no_balance ~verify in
      (s, Script.compile s)
    | Some s ->
      let passes = Script.compile s in
      (* --verify on top of a script appends a final CEC unless the
         script already ends with one. *)
      let ends_with_verify =
        match List.rev passes with
        | p :: _ -> p.Pass.name = "verify"
        | [] -> false
      in
      if verify && not ends_with_verify then
        (s ^ "; verify", passes @ Script.compile "verify")
      else (s, passes)
  in
  let echo s = print_string s; flush stdout in
  let ctx =
    Pass.create_ctx ~sim_domains:domains ~sat_domains
      ~budget:(Obs.Budget.create ?timeout ()) ~certify ~echo net
  in
  echo (Printf.sprintf "%-14s %s\n" name
          (Format.asprintf "%a" Aig.Network.pp_stats net));
  let t_flow = Obs.Clock.now () in
  let final, records = Pass.run_pipeline ctx passes net in
  let total_s = Obs.Clock.now () -. t_flow in
  (match output with
  | Some path ->
    Aig.Aiger.write_file path final;
    Printf.printf "wrote: %s\n" path
  | None -> ());
  (match json with
  | None -> ()
  | Some path ->
    let open Obs.Json in
    to_file path
      (Obj
         (Report.run_meta ~tool:"flow"
         @ [
             ("circuit", String name);
             ("script", String script);
             ("domains", Int domains);
             ("certify", Bool certify);
             ("input", Aig.Network.stats_json net);
             ("output", Aig.Network.stats_json final);
           ]
         @ Pass.summary_json ctx records
         @ [ ("flow_total_s", Float total_s) ]));
    Printf.printf "wrote: %s\n" path);
  if Pass.any_different ctx then exit 1

open Cmdliner

let circuit =
  Arg.(value & opt (some string) None & info [ "circuit" ] ~doc:"Named benchmark.")

let file = Arg.(value & opt (some file) None & info [ "aig" ] ~doc:"ASCII AIGER file.")

let script =
  Arg.(
    value
    & opt (some string) None
    & info [ "c"; "command" ] ~docv:"SCRIPT"
        ~doc:
          "Flow script, ABC-style: passes separated by ';', e.g. \
           $(b,\"sweep -e stp; rewrite; balance; verify\"). Available \
           passes: sweep, rewrite, balance, cleanup, verify, ps. \
           Overrides the legacy stage flags.")

let engine =
  Arg.(value & opt (enum [ ("stp", `Stp); ("fraig", `Fraig) ]) `Stp
       & info [ "engine"; "e" ] ~doc:"Sweeping engine (legacy flow; use -c for scripts).")
let domains =
  Arg.(value & opt int 1
       & info [ "domains"; "d" ]
           ~doc:"OCaml domains for the sweeper's bulk resimulation passes.")

(* Solver-pool sizes: a pool needs at least one member. *)
let pool_size =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt s with
        | Some d when d >= 1 -> Ok d
        | _ -> Error (Printf.sprintf "expected an integer >= 1, got '%s'" s)),
      Format.pp_print_int )

let sat_domains =
  Arg.(value & opt pool_size 1
       & info [ "sat-domains" ] ~docv:"N"
           ~doc:
             "Default solver-pool size for every sweep pass (the default 1 \
              spawns no domain); a per-pass --sat-domains inside -c \
              overrides it. Without a timeout or conflict limit the \
              swept network is the same for every value.")

let timeout =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget for the whole pipeline; on exhaustion the \
           current sweep degrades to structural translation, remaining \
           transform passes are skipped (and reported), and verify still \
           runs.")
let verify =
  Arg.(value & flag
       & info [ "verify" ] ~doc:"CEC-verify the result (appends a verify pass).")

let certify =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Certified pipeline: solver answers in every sweep and every \
           verify CEC are accepted only with a replayed DRUP proof / \
           validated model.")

let output = Arg.(value & opt (some string) None & info [ "output"; "o" ] ~doc:"Output AIGER path.")
let no_rewrite = Arg.(value & flag & info [ "no-rewrite" ] ~doc:"Skip the rewrite stage (legacy flow).")
let no_balance = Arg.(value & flag & info [ "no-balance" ] ~doc:"Skip the balance stage (legacy flow).")

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
    (Cmd.info "flow" ~doc:"script-driven optimization flow (default: sweep -> rewrite -> balance)")
    Term.(const (fun a b c d e f g h i j k l m n ->
              run a b c d e f g h i j k l m n ())
          $ circuit $ file $ script $ engine $ domains $ sat_domains $ timeout
          $ verify $ certify $ output $ no_rewrite $ no_balance $ json $ trace)

let () = exit (Cmd.eval cmd)

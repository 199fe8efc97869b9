(* The 'sweep' command: SAT-sweep a circuit with the baseline or STP
   engine, print statistics, optionally verify with CEC and write the
   swept network back out as ASCII AIGER.

   Runs as a one-pass pipeline (plus a verify pass under --verify)
   through the same Pass.run_pipeline as bin/flow.exe, so budgets,
   degradation and certification behave identically across CLIs. *)

open Stp_sweep

(* Client ("sweepc") mode: same flags, but the pipeline runs inside a
   sweepd daemon reached over --connect SOCK, through the Svc.Client
   retry library: typed R_overloaded answers and refused connects are
   retried with jittered exponential backoff (--remote-retries), so a
   momentarily saturated daemon costs latency, not a failed run. The
   daemon's report is the authority — the verdict, the JSON and the
   swept AIG all come off the wire; exit codes mirror the local path
   (1 = CEC different, 2 = parse/IO, 3 = verification failed). *)
let run_remote sock remote_retries name net script timeout verify certify
    output json echo =
  let policy = { Svc.Client.default_policy with retries = remote_retries } in
  let client =
    match Svc.Client.connect ~policy sock with
    | Ok c -> c
    | Error e ->
      Printf.eprintf "sweep: %s\n" (Svc.Client.error_to_string e);
      exit 2
  in
  Fun.protect ~finally:(fun () -> Svc.Client.close client) @@ fun () ->
  match
    Svc.Client.request client
      {
        Svc.Proto.req_id = Unix.getpid ();
        script;
        aiger = Aig.Aiger.write net;
        req_timeout = timeout;
        req_verify = verify;
        req_certify = certify;
      }
  with
  | Error e ->
    Printf.eprintf "sweep: %s\n" (Svc.Client.error_to_string e);
    exit 2
  | Ok (Svc.Proto.R_error { kind; message; _ }) ->
    Printf.eprintf "sweep: server error (%s): %s\n" kind message;
    exit (if kind = "verification_failed" then 3 else 2)
  | Ok (Svc.Proto.R_overloaded _ | Svc.Proto.R_health _) ->
    (* The client library retries overloads internally and we sent a
       run request, so neither should surface here. *)
    prerr_endline "sweep: unexpected response from server";
    exit 2
  | Ok (Svc.Proto.R_ok { report; _ }) ->
    let open Obs.Json in
    let int_of name = match member name report with Some (Int i) -> Some i | _ -> None in
    (match (int_of "input_ands", int_of "result_ands") with
    | Some i, Some r ->
      echo (Printf.sprintf "%-14s server: %d -> %d ands\n" name i r)
    | _ -> ());
    (match member "cec" report with
    | Some (String v) -> echo (Printf.sprintf "cec: %s\n" v)
    | _ -> ());
    (match (output, member "result_aiger" report) with
    | Some path, Some (String aag) ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc aag);
      Printf.printf "wrote: %s\n" path
    | Some _, _ ->
      prerr_endline "sweep: server report carries no result_aiger";
      exit 2
    | None, _ -> ());
    (match json with
    | Some path ->
      to_file path report;
      Printf.printf "wrote: %s\n" path
    | None -> ());
    if member "cec" report = Some (String "different") then exit 1

let run circuit file engine timeout sat_domains self_verify verify certify
    output json trace connect remote_retries () =
  Report.cli_guard @@ fun () ->
  if trace then Obs.Trace.enable ();
  let name, net = Report.load_network ?circuit ?file () in
  let script =
    let b = Buffer.create 32 in
    Buffer.add_string b
      (match engine with `Stp -> "sweep -e stp" | `Fraig -> "sweep -e fraig");
    if sat_domains <> 1 then
      Buffer.add_string b (Printf.sprintf " --sat-domains %d" sat_domains);
    if verify then Buffer.add_string b "; verify";
    Buffer.contents b
  in
  let echo s = print_string s; flush stdout in
  match connect with
  | Some sock ->
    run_remote sock remote_retries name net script timeout self_verify certify
      output json echo
  | None ->
  let ctx =
    Pass.create_ctx ~budget:(Obs.Budget.create ?timeout ()) ~verify:self_verify
      ~certify ~echo net
  in
  echo (Printf.sprintf "%-14s %s\n" name
          (Format.asprintf "%a" Aig.Network.pp_stats net));
  let swept, records = Pass.run_pipeline ctx (Script.compile script) net in
  (match output with
  | Some path ->
    Aig.Aiger.write_file path swept;
    Printf.printf "wrote: %s\n" path
  | None -> ());
  (match json with
  | None -> ()
  | Some path ->
    let open Obs.Json in
    (* The sweep statistics live in the pass record
       (passes[0].stats), not in a duplicated top-level object —
       schema_version 2, documented in EXPERIMENTS.md. *)
    to_file path
      (Obj
         (Report.run_meta ~tool:"sweep"
         @ [
             ("circuit", String name);
             ("engine", String (match engine with `Stp -> "stp" | `Fraig -> "fraig"));
             ("input_ands", Int (Aig.Network.num_ands net));
             ("result_ands", Int (Aig.Network.num_ands swept));
             ("certify", Bool certify);
           ]
         @ Pass.summary_json ctx records));
    Printf.printf "wrote: %s\n" path);
  if Pass.any_different ctx then exit 1

open Cmdliner

let circuit =
  Arg.(value & opt (some string) None & info [ "circuit"; "c" ] ~doc:"Named generated benchmark.")

let file = Arg.(value & opt (some file) None & info [ "aig" ] ~doc:"ASCII AIGER file.")

let engine =
  Arg.(value & opt (enum [ ("stp", `Stp); ("fraig", `Fraig) ]) `Stp
       & info [ "engine"; "e" ] ~doc:"Sweeping engine.")

let timeout =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget for the sweep. On exhaustion the engine stops \
           proving, translates the rest structurally and reports \
           budget_exhausted; the partial result is still equivalent to the \
           input.")

(* Solver-pool sizes: a pool needs at least one member. *)
let pool_size =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt s with
        | Some d when d >= 1 -> Ok d
        | _ -> Error (Printf.sprintf "expected an integer >= 1, got '%s'" s)),
      Format.pp_print_int )

let sat_domains =
  Arg.(
    value & opt pool_size 1
    & info [ "sat-domains" ] ~docv:"N"
        ~doc:
          "Run the SAT queries on a pool of $(docv) solver domains (each \
           with its own incremental solver and, under --certify, its own \
           DRUP checker). The default 1 spawns no domain. Without a \
           timeout the swept network is the same for every value.")

let self_verify =
  Arg.(
    value & flag
    & info [ "self-verify" ]
        ~doc:
          "Prove the swept network equivalent to the input after the sweep \
           (full CEC, with fault injection suspended); exits 3 if it cannot \
           be proven.")

let verify = Arg.(value & flag & info [ "verify" ] ~doc:"CEC-verify the result.")

let certify =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Certified sweeping: every UNSAT-driven merge must replay its \
           DRUP proof through the independent checker, every \
           counterexample must validate; rejected certificates degrade \
           their node and count into certificate_rejected.")

let output =
  Arg.(value & opt (some string) None & info [ "output"; "o" ] ~doc:"Write the swept AIG here.")

let json =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write a machine-readable run report here.")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ] ~doc:"Stream sweep progress to stderr (or STP_SWEEP_TRACE=1).")

let connect =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCK"
        ~doc:
          "Run the pipeline inside a sweepd daemon listening on the \
           Unix-domain socket $(docv) instead of in-process; the swept \
           AIG, report and exit code come from the server's response.")

let remote_retries =
  Arg.(
    value & opt int 5
    & info [ "remote-retries" ] ~docv:"N"
        ~doc:
          "With --connect: retry up to $(docv) times (jittered \
           exponential backoff, honoring the server's retry_after hint) \
           when the daemon sheds the connection as overloaded or refuses \
           it. 0 fails fast.")

let cmd =
  Cmd.v
    (Cmd.info "sweep" ~doc:"SAT-sweep a circuit")
    Term.(
      const (fun a b c d e f g h i j k l m ->
          run a b c d e f g h i j k l m ())
      $ circuit $ file $ engine $ timeout $ sat_domains
      $ self_verify $ verify $ certify $ output $ json $ trace $ connect
      $ remote_retries)

let () = exit (Cmd.eval cmd)

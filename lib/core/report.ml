(* Wall clock, not [Sys.time]: CPU time sums over domains, so it would
   report a parallel engine as ~N x slower under perfect scaling. *)
let time_repeat ?(min_time = 0.2) f =
  let t0 = Obs.Clock.now () in
  let rec go runs =
    f ();
    let elapsed = Obs.Clock.now () -. t0 in
    if elapsed >= min_time then elapsed /. float_of_int runs else go (runs + 1)
  in
  go 1

let geomean xs =
  match xs with
  | [] -> 0.
  | _ ->
    let eps = 1e-9 in
    let log_sum =
      List.fold_left (fun acc x -> acc +. log (Float.max x eps)) 0. xs
    in
    exp (log_sum /. float_of_int (List.length xs))

let render_table ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left
      (fun acc row -> Stdlib.max acc (String.length (List.nth row c)))
      0 all
  in
  let widths = List.init cols width in
  let render_row row =
    String.concat "  "
      (List.map2
         (fun cell w -> cell ^ String.make (w - String.length cell) ' ')
         row widths)
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (render_row header :: sep :: List.map render_row rows)
  ^ "\n"

let fmt_time t = Printf.sprintf "%.3f" t
let fmt_ratio r = Printf.sprintf "%.2f" r

(* Inside the run function, not around [Cmd.eval]: Cmdliner catches
   stray exceptions itself and turns them into exit 125 with a
   backtrace, which is the wrong surface for a mistyped file path. *)
let cli_guard f =
  try f () with
  | Aig.Aiger.Parse_error msg ->
    Printf.eprintf "parse error: %s\n" msg;
    exit 2
  | Script.Parse_error msg ->
    Printf.eprintf "script error: %s\n" msg;
    exit 2
  | Klut.Blif.Parse_error msg ->
    Printf.eprintf "parse error: %s\n" msg;
    exit 2
  | Sat.Dimacs.Parse_error msg ->
    Printf.eprintf "parse error: %s\n" msg;
    exit 2
  | Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 2
  | Obs.Json.Parse_error (at, msg) ->
    Printf.eprintf "parse error: offset %d: %s\n" at msg;
    exit 2
  | Unix.Unix_error (err, fn, arg) ->
    (* The daemon/client paths surface socket errors here; a refused
       connection or a stale socket path is an input problem, not a
       crash, so it shares the parse-error exit surface. *)
    let what = if arg = "" then fn else Printf.sprintf "%s %s" fn arg in
    let hint =
      match err with
      | Unix.ECONNREFUSED ->
        " (is the daemon running? start it with sweepd --socket PATH)"
      | Unix.ENOENT -> " (no such file or socket)"
      | Unix.EADDRINUSE ->
        " (socket already in use — another daemon, or a stale path)"
      | _ -> ""
    in
    Printf.eprintf "error: %s: %s%s\n" what (Unix.error_message err) hint;
    exit 2
  | Sweep.Engine.Verification_failed msg ->
    Printf.eprintf "verification failed: %s\n" msg;
    exit 3

(* The one benchmark/AIGER loader behind every CLI's --circuit/--aig
   pair (it used to be copy-pasted per binary). Unknown names and
   missing/extra flags exit 2, matching cli_guard's surface for
   malformed files. *)
let load_network ?circuit ?file () =
  match (circuit, file) with
  | Some name, None -> (
    ( name,
      try Gen.Suites.hwmcc_by_name name
      with Not_found -> (
        try Gen.Suites.epfl_by_name name
        with Not_found ->
          Printf.eprintf
            "unknown benchmark '%s' (the named HWMCC/EPFL-family suites are \
             listed in Gen.Suites)\n"
            name;
          exit 2) ))
  | None, Some path -> (Filename.basename path, Aig.Aiger.read_file path)
  | _ ->
    prerr_endline "exactly one of --circuit or --aig is required";
    exit 2

let run_meta ~tool =
  [
    (* 2: flow/sweep reports carry per-pass records ("passes") instead
       of the ad-hoc "stages"/top-level "sweep" sections. *)
    ("schema_version", Obs.Json.Int 2);
    ("tool", Obs.Json.String tool);
    ("generated_at_unix_s", Obs.Json.Float (Obs.Clock.now ()));
    ( "argv",
      Obs.Json.List
        (Array.to_list (Array.map (fun a -> Obs.Json.String a) Sys.argv)) );
  ]

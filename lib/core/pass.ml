(* The pass manager: named, first-class network transforms over a shared
   pipeline context, a registry of built-in passes, and the runner that
   threads one network through a pipeline under a single budget.

   This is the architecture move from "bin/flow.ml hardcodes
   sweep -> rewrite -> balance" to ABC-style composable flows: every CLI
   compiles its flags into a script (see {!Script}), every script
   becomes a list of passes, and budget / degradation / certification
   semantics hold for the whole pipeline instead of per call. *)

module A = Aig.Network

type ctx = {
  sim_domains : int;
  sat_domains : int;
  budget : Obs.Budget.t;
  verify : bool;
  certify : bool;
  cache : Sweep.Engine.cache_ops option;
      (* cross-run equivalence cache handed to every sweep pass; the
         daemon shares one store across all requests *)
  cache_paranoid : bool;
  input : A.t;
  mutable checkpoint : A.t;
  mutable verdicts : string list;
  echo : string -> unit;
}

let create_ctx ?(sim_domains = 1) ?(sat_domains = 1)
    ?(budget = Obs.Budget.unlimited ()) ?(verify = false) ?(certify = false)
    ?cache ?(cache_paranoid = false) ?(echo = print_string) input =
  {
    sim_domains;
    sat_domains;
    budget;
    verify;
    certify;
    cache;
    cache_paranoid;
    input;
    checkpoint = input;
    verdicts = [];
    echo;
  }

type t = {
  name : string;
  args : (string * string) list;
  transform : bool;
  run : ctx -> A.t -> A.t * Obs.Json.t;
}

(* ---- registry ---- *)

type arity = Unit | Value

type flag = { keys : string list; arity : arity; flag_doc : string }

type spec = {
  pass : string;
  doc : string;
  flags : flag list;
  transform : bool;
  make : (string * string) list -> ctx -> A.t -> A.t * Obs.Json.t;
}

exception Bad_arg of string * string

let canonical_key f =
  let k = List.hd f.keys in
  let i = ref 0 in
  while !i < String.length k && k.[!i] = '-' do
    incr i
  done;
  String.sub k !i (String.length k - !i)

let registry : (string, spec) Hashtbl.t = Hashtbl.create 16

let register spec = Hashtbl.replace registry spec.pass spec

let find name = Hashtbl.find_opt registry name

let names () =
  Hashtbl.fold (fun k _ acc -> k :: acc) registry []
  |> List.sort String.compare

(* ---- built-in passes ---- *)

let int_arg key v =
  match int_of_string_opt v with
  | Some i -> i
  | None -> raise (Bad_arg (key, Printf.sprintf "expected an integer, got '%s'" v))

let sweep_make args =
  let engine, preset =
    match List.assoc_opt "engine" args with
    | None | Some "stp" -> ("stp", Sweep.Engine.stp_config)
    | Some "fraig" -> ("fraig", Sweep.Engine.fraig_config)
    | Some other ->
      raise
        (Bad_arg ("engine", Printf.sprintf "unknown engine '%s' (stp|fraig)" other))
  in
  let positive key v =
    let i = int_arg key v in
    if i < 1 then
      raise
        (Bad_arg (key, Printf.sprintf "%s must be at least 1, got %d" key i));
    i
  in
  let value key parse = Option.map parse (List.assoc_opt key args) in
  let conflict_limit = value "conflict-limit" (positive "conflict-limit") in
  let retry_schedule =
    value "retry-schedule" (fun v ->
        String.split_on_char ',' v
        |> List.map (fun s -> positive "retry-schedule" (String.trim s)))
  in
  (* Attempt i of a query runs under element i of the schedule. An
     unlimited first attempt leaves nothing for a retry to do, so a
     retry schedule needs a first limit. *)
  let conflict_limits =
    match (conflict_limit, retry_schedule) with
    | Some first, later -> first :: Option.value later ~default:[]
    | None, None -> preset.Sweep.Engine.conflict_limits
    | None, Some _ ->
      raise
        (Bad_arg
           ( "retry-schedule",
             "retry-schedule needs --conflict-limit (without one the first \
              attempt is unlimited and never retried)" ))
  in
  let sat_domains = value "sat-domains" (positive "sat-domains") in
  fun ctx net ->
    (* The whole pipeline budget is handed to the sweep: it honors the
       shared deadline plus any conflict/propagation caps, charges its
       SAT work back (so an Obs.Pool lease can reclaim unspent
       allowance), and its sticky exhaustion is visible to the runner's
       between-pass checks; the engine degrades on mid-pass exhaustion.
       A per-pass --sat-domains wins over the pipeline-level default. *)
    let config =
      {
        preset with
        Sweep.Engine.conflict_limits;
        sim_domains = ctx.sim_domains;
        sat_domains = Option.value sat_domains ~default:ctx.sat_domains;
        budget = Some ctx.budget;
        verify = ctx.verify;
        certify = ctx.certify;
        cache = ctx.cache;
        cache_paranoid = ctx.cache_paranoid;
      }
    in
    let swept, stats = Sweep.Selfcheck.run ~config net in
    ctx.echo (Format.asprintf "  %a\n" Sweep.Stats.pp stats);
    let fields =
      match Sweep.Stats.to_json stats with
      | Obs.Json.Obj fields -> fields
      | other -> [ ("sweep", other) ]
    in
    (swept, Obs.Json.Obj (("engine", Obs.Json.String engine) :: fields))

let rewrite_make args =
  let k = Option.map (int_arg "k") (List.assoc_opt "k" args) in
  let conflict_limit =
    Option.map (int_arg "conflict-limit") (List.assoc_opt "conflict-limit" args)
  in
  fun ctx net ->
    let r, st = Synth.Rewrite.rewrite ?k ?conflict_limit net in
    ctx.echo
      (Printf.sprintf "  applied=%d classes=%d\n" st.Synth.Rewrite.applied
         st.Synth.Rewrite.classes_synthesized);
    (r, Synth.Rewrite.stats_to_json st)

let balance_make _args _ctx net =
  let b, map = Aig.Balance.balance net in
  let dropped =
    Array.fold_left (fun acc l -> if l = -1 then acc + 1 else acc) 0 map
  in
  (b, Obs.Json.Obj [ ("dropped_nodes", Obs.Json.Int dropped) ])

let cleanup_make _args _ctx net =
  let c, _ = A.cleanup net in
  ( c,
    Obs.Json.Obj
      [ ("removed_nodes", Obs.Json.Int (A.num_nodes net - A.num_nodes c)) ] )

let verify_make args =
  let against_input = List.mem_assoc "input" args in
  fun ctx net ->
    let baseline = if against_input then ctx.input else ctx.checkpoint in
    (* The verification oracle judges the (possibly fault-degraded)
       pipeline, so it runs with injection suspended — same contract as
       Selfcheck and the pre-pass-manager flow. *)
    let verdict =
      Obs.Fault.bypass (fun () ->
          Sweep.Cec.check ~certify:ctx.certify baseline net)
    in
    let s, po =
      match verdict with
      | Sweep.Cec.Equivalent ->
        ctx.echo "cec: equivalent\n";
        (* A proven network becomes the reference for the next verify
           pass, so long scripts can checkpoint intermediate states. *)
        ctx.checkpoint <- net;
        ("equivalent", None)
      | Sweep.Cec.Different { po; _ } ->
        ctx.echo (Printf.sprintf "cec: DIFFERENT at output %d\n" po);
        ("different", Some po)
      | Sweep.Cec.Undetermined po ->
        ctx.echo (Printf.sprintf "cec: undetermined at output %d\n" po);
        ("undetermined", Some po)
    in
    ctx.verdicts <- s :: ctx.verdicts;
    ( net,
      Obs.Json.Obj
        [
          ("cec", Obs.Json.String s);
          ( "against",
            Obs.Json.String (if against_input then "input" else "checkpoint") );
          ("po", match po with None -> Obs.Json.Null | Some p -> Obs.Json.Int p);
        ] )

let ps_make _args _ctx net = (net, A.stats_json net)

let () =
  List.iter register
    [
      {
        pass = "sweep";
        doc = "SAT-sweep the network (engines: stp, fraig)";
        flags =
          [
            (* Long alias first: it names the canonical key ("engine")
               that make receives and the report renders. *)
            { keys = [ "--engine"; "-e" ]; arity = Value; flag_doc = "stp|fraig" };
            {
              keys = [ "--retry-schedule" ];
              arity = Value;
              flag_doc = "escalating conflict limits, comma-separated, each >= 1";
            };
            {
              keys = [ "--conflict-limit" ];
              arity = Value;
              flag_doc = "per-query conflict cap (>= 1)";
            };
            {
              keys = [ "--sat-domains" ];
              arity = Value;
              flag_doc = "solver domains the SAT queries run on (default 1)";
            };
          ];
        transform = true;
        make = sweep_make;
      };
      {
        pass = "rewrite";
        doc = "cut-based rewriting with exact resynthesis";
        flags =
          [
            { keys = [ "-k" ]; arity = Value; flag_doc = "cut size (default 4)" };
            {
              keys = [ "--conflict-limit" ];
              arity = Value;
              flag_doc = "per-class exact-synthesis conflict cap";
            };
          ];
        transform = true;
        make = rewrite_make;
      };
      {
        pass = "balance";
        doc = "AND-tree balancing";
        flags = [];
        transform = true;
        make = (fun args -> balance_make args);
      };
      {
        pass = "cleanup";
        doc = "drop dead nodes";
        flags = [];
        transform = true;
        make = (fun args -> cleanup_make args);
      };
      {
        pass = "verify";
        doc = "CEC against the pipeline input (or the last checkpoint)";
        flags =
          [
            {
              keys = [ "--input" ];
              arity = Unit;
              flag_doc = "check against the pipeline input, not the last checkpoint";
            };
          ];
        transform = false;
        make = verify_make;
      };
      {
        pass = "ps";
        doc = "record network statistics";
        flags = [];
        transform = false;
        make = (fun args -> ps_make args);
      };
    ]

(* ---- runner ---- *)

type record = {
  r_name : string;
  r_args : (string * string) list;
  r_skipped : string option;
  r_ands_before : int;
  r_depth_before : int;
  r_ands_after : int;
  r_depth_after : int;
  r_wall_s : float;
  r_detail : Obs.Json.t;
}

let record_json r =
  let open Obs.Json in
  Obj
    [
      ("pass", String r.r_name);
      ("args", Obj (List.map (fun (k, v) -> (k, String v)) r.r_args));
      ("skipped", match r.r_skipped with None -> Null | Some s -> String s);
      ("ands_before", Int r.r_ands_before);
      ("depth_before", Int r.r_depth_before);
      ("ands_after", Int r.r_ands_after);
      ("depth_after", Int r.r_depth_after);
      ("wall_s", Float r.r_wall_s);
      ("stats", r.r_detail);
    ]

let run_pipeline ctx passes net0 =
  let net = ref net0 in
  let run_one (p : t) =
    let ands_before = A.num_ands !net and depth_before = A.depth !net in
    (* Pipeline-wide degradation: once the shared budget is exhausted,
       remaining transform passes are skipped and reported; verify and
       ps still run — a degraded result must still be checkable. *)
    let skipped =
      if p.transform then
        Option.map Obs.Budget.reason_to_string
          (Obs.Budget.check_now ctx.budget)
      else None
    in
    let spans = Obs.Span.create [] in
    let detail =
      match skipped with
      | Some reason ->
        ctx.echo
          (Printf.sprintf "%-14s skipped (budget exhausted: %s)\n" p.name
             reason);
        Obs.Json.Null
      | None ->
        let out, detail =
          Obs.Span.with_ spans p.name (fun () -> p.run ctx !net)
        in
        net := out;
        ctx.echo
          (Printf.sprintf "%-14s %s\n" p.name
             (Format.asprintf "%a" A.pp_stats out));
        detail
    in
    {
      r_name = p.name;
      r_args = p.args;
      r_skipped = skipped;
      r_ands_before = ands_before;
      r_depth_before = depth_before;
      r_ands_after = A.num_ands !net;
      r_depth_after = A.depth !net;
      r_wall_s = Obs.Span.total spans;
      r_detail = detail;
    }
  in
  let records = List.map run_one passes in
  (!net, records)

let skipped_count records =
  List.length (List.filter (fun r -> r.r_skipped <> None) records)

let last_verdict ctx =
  match ctx.verdicts with [] -> None | v :: _ -> Some v

let any_different ctx = List.mem "different" ctx.verdicts

let summary_json ctx records =
  let open Obs.Json in
  [
    ("passes", List (List.map record_json records));
    ("skipped_passes", Int (skipped_count records));
    ( "cec",
      match last_verdict ctx with None -> Null | Some v -> String v );
  ]

type exhaustion = { reason : string; phase : string }

type t = {
  mutable sat_sat : int;
  mutable sat_unsat : int;
  mutable sat_undet : int;
  mutable sat_retries : int;
  mutable merges : int;
  mutable const_merges : int;
  mutable window_merges : int;
  mutable cut_merges : int;
  mutable window_splits : int;
  mutable ce_patterns : int;
  mutable initial_patterns : int;
  mutable resimulations : int;
  mutable sat_decisions : int;
  mutable sat_conflicts : int;
  mutable sat_propagations : int;
  mutable sat_learned : int;
  mutable certified_unsat : int;
  mutable certified_models : int;
  mutable certificate_rejected : int;
  mutable guided_consts : int;
  mutable guided_sat_calls : int;
  mutable guided_patterns : int;
  mutable cube_splits : int;
  mutable cube_queries : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_rejected : int;
  mutable budget_exhausted : exhaustion option;
  spans : Obs.Span.t;
}

let root = "sweep"

let create () =
  {
    sat_sat = 0;
    sat_unsat = 0;
    sat_undet = 0;
    sat_retries = 0;
    merges = 0;
    const_merges = 0;
    window_merges = 0;
    cut_merges = 0;
    window_splits = 0;
    ce_patterns = 0;
    initial_patterns = 0;
    resimulations = 0;
    sat_decisions = 0;
    sat_conflicts = 0;
    sat_propagations = 0;
    sat_learned = 0;
    certified_unsat = 0;
    certified_models = 0;
    certificate_rejected = 0;
    guided_consts = 0;
    guided_sat_calls = 0;
    guided_patterns = 0;
    cube_splits = 0;
    cube_queries = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_rejected = 0;
    budget_exhausted = None;
    spans =
      Obs.Span.create
        [ "sim"; "plan_compile"; "guided"; "resim"; "window"; "sat";
          "setup"; "collect"; "apply"; "reclass"; "cleanup" ];
  }

let total_sat_calls t = t.sat_sat + t.sat_unsat + t.sat_undet

let phase_times t =
  List.filter (fun (k, _) -> k <> root) (Obs.Span.totals t.spans)

let total_time t = Obs.Span.total t.spans

let simulation_time t =
  let times = phase_times t in
  List.fold_left (fun acc k -> acc +. List.assoc k times) 0.
    [ "sim"; "plan_compile"; "guided"; "resim"; "window" ]

let to_json t =
  let open Obs.Json in
  Obj
    [
      ( "counters",
        Obj
          [
            ("sat_sat", Int t.sat_sat);
            ("sat_unsat", Int t.sat_unsat);
            ("sat_undet", Int t.sat_undet);
            ("sat_retries", Int t.sat_retries);
            ("total_sat_calls", Int (total_sat_calls t));
            ("merges", Int t.merges);
            ("const_merges", Int t.const_merges);
            ("window_merges", Int t.window_merges);
            ("cut_merges", Int t.cut_merges);
            ("window_splits", Int t.window_splits);
            ("ce_patterns", Int t.ce_patterns);
            ("initial_patterns", Int t.initial_patterns);
            ("resimulations", Int t.resimulations);
            ("certified_unsat", Int t.certified_unsat);
            ("certified_models", Int t.certified_models);
            ("certificate_rejected", Int t.certificate_rejected);
            ("guided_consts", Int t.guided_consts);
            ("guided_sat_calls", Int t.guided_sat_calls);
            ("guided_patterns", Int t.guided_patterns);
            ("cube_splits", Int t.cube_splits);
            ("cube_queries", Int t.cube_queries);
            ("cache_hits", Int t.cache_hits);
            ("cache_misses", Int t.cache_misses);
            ("cache_rejected", Int t.cache_rejected);
          ] );
      ( "phases_s",
        Obj
          (List.map (fun (k, v) -> (k, Float v)) (phase_times t)
          @ [ ("total", Float (total_time t)) ]) );
      ( "sat_solver",
        Obj
          [
            ("decisions", Int t.sat_decisions);
            ("conflicts", Int t.sat_conflicts);
            ("propagations", Int t.sat_propagations);
            ("learned", Int t.sat_learned);
          ] );
      ( "budget_exhausted",
        match t.budget_exhausted with
        | None -> Null
        | Some e ->
          Obj [ ("reason", String e.reason); ("phase", String e.phase) ] );
    ]

(* Renders [to_json], so a counter is named in one place: one
   [section: key=value ...] line per object, floats to the millisecond. *)
let pp ppf t =
  let open Obs.Json in
  let rec value ppf = function
    | Int i -> Format.pp_print_int ppf i
    | Float f -> Format.fprintf ppf "%.3f" f
    | String s -> Format.pp_print_string ppf s
    | Obj fields ->
      Format.pp_print_list ~pp_sep:Format.pp_print_space
        (fun ppf (k, v) -> Format.fprintf ppf "%s=%a" k value v)
        ppf fields
    | v -> Format.pp_print_string ppf (to_string v)
  in
  match to_json t with
  | Obj sections ->
    Format.fprintf ppf "@[<v>%a@]"
      (Format.pp_print_list (fun ppf (name, v) ->
           Format.fprintf ppf "@[<hov 2>%s:@ %a@]" name value v))
      sections
  | v -> value ppf v

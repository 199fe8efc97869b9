let sweep ?seed ?initial_words ?conflict_limit ?retry_schedule
    ?window_max_leaves ?sim_domains ?sat_domains ?deadline ?timeout ?budget
    ?(verify = false) ?(certify = false) ?cache ?(cache_paranoid = false) net =
  let base = Engine.stp_config in
  let deadline =
    match (deadline, timeout, budget) with
    | Some d, _, _ -> Some d
    | None, Some s, _ -> Some (Obs.Clock.now () +. s)
    | None, None, Some b -> Obs.Budget.deadline b
    | None, None, None -> base.Engine.deadline
  in
  let cfg =
    {
      base with
      Engine.seed = Option.value seed ~default:base.Engine.seed;
      initial_words =
        Option.value initial_words ~default:base.Engine.initial_words;
      conflict_limit =
        (match conflict_limit with
        | Some l -> Some l
        | None -> base.Engine.conflict_limit);
      retry_schedule =
        Option.value retry_schedule ~default:base.Engine.retry_schedule;
      window_max_leaves =
        Option.value window_max_leaves ~default:base.Engine.window_max_leaves;
      sim_domains = Option.value sim_domains ~default:base.Engine.sim_domains;
      sat_domains = Option.value sat_domains ~default:base.Engine.sat_domains;
      deadline;
      budget;
      verify;
      certify;
      cache;
      cache_paranoid;
    }
  in
  if verify then Selfcheck.run ~config:cfg net else Engine.run ~config:cfg net

(** The paper's STP-enhanced SAT sweeper (Algorithm 2): SAT-guided
    two-round initial patterns plus exhaustive-window refinement of
    candidate equivalence classes in front of every solver query.
    Table II's right columns. *)

val sweep :
  ?config:Engine.config -> Aig.Network.t -> Aig.Network.t * Stats.t
(** [sweep ~config net] runs {!Selfcheck.run} — the engine, plus a CEC of
    the result when [config.verify] is set. [config] defaults to
    {!Engine.stp_config}; adjust it by functional update, e.g.
    [{ Engine.stp_config with budget = Some (Obs.Budget.create ~timeout:5. ()) }]
    for a wall-clock cap (the engine degrades to structural translation
    on exhaustion and records [Stats.budget_exhausted]) or
    [{ Engine.stp_config with certify = true }] for replayed
    certificates. Every field is documented at {!Engine.config}. *)

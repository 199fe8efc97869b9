(** The paper's STP-enhanced SAT sweeper (Algorithm 2): SAT-guided
    two-round initial patterns plus exhaustive-window refinement of
    candidate equivalence classes in front of every solver query.
    Table II's right columns.

    [deadline] (absolute {!Obs.Clock} timestamp) or [timeout] (seconds
    from the call; ignored when [deadline] is given) budget the sweep —
    on exhaustion the engine degrades to structural translation and
    records [Stats.budget_exhausted]. [budget] hands the sweep an
    externally owned {!Obs.Budget} instead (a pipeline's shared budget
    or an {!Obs.Pool} lease's); its deadline, conflict and propagation
    caps all apply, and the engine charges its SAT work back to it. [retry_schedule] lists escalating
    conflict limits re-tried on undetermined pairs. [verify] routes the
    sweep through {!Selfcheck.run}, raising
    {!Engine.Verification_failed} unless the result provably matches
    the input. [sat_domains] (default 1) sizes the solver pool the
    queries run on — see {!Engine.config}. [certify] makes every solver
    answer carry a replayed certificate ({!Engine.config}); rejected
    certificates degrade their node instead of merging it. *)

val sweep :
  ?seed:int64 ->
  ?initial_words:int ->
  ?conflict_limit:int ->
  ?retry_schedule:int list ->
  ?window_max_leaves:int ->
  ?sim_domains:int ->
  ?sat_domains:int ->
  ?deadline:float ->
  ?timeout:float ->
  ?budget:Obs.Budget.t ->
  ?verify:bool ->
  ?certify:bool ->
  ?cache:Engine.cache_ops ->
  ?cache_paranoid:bool ->
  Aig.Network.t ->
  Aig.Network.t * Stats.t

(** The baseline SAT sweeper — ABC's [&fraig -x] recipe on this
    code base: random initial simulation, candidate equivalence classes,
    topological SAT merging, counter-example resimulation. Table II's
    left columns.

    Budgeting, verification and pool knobs ([deadline] / [timeout] /
    [retry_schedule] / [verify] / [sat_domains]) behave exactly as in
    {!Stp_sweep}. *)

val sweep :
  ?seed:int64 ->
  ?initial_words:int ->
  ?conflict_limit:int ->
  ?retry_schedule:int list ->
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

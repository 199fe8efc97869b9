(** The baseline SAT sweeper — ABC's [&fraig -x] recipe on this
    code base: random initial simulation, candidate equivalence classes,
    topological SAT merging, counter-example resimulation. Table II's
    left columns. *)

val sweep :
  ?config:Engine.config -> Aig.Network.t -> Aig.Network.t * Stats.t
(** {!Stp_sweep.sweep} with [config] defaulting to
    {!Engine.fraig_config}. *)

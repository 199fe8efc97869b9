(** Self-verifying sweep: run the engine, then prove the result.

    {!Engine.run} does not read [config.verify]; this module does, and
    proves the result equivalent to the input with {!Cec.check},
    turning "the sweep is sound by construction" into a checked runtime
    guarantee. It costs about a second sweep, so it is opt-in (flows
    take [--self-verify]), and it is a module of its own because {!Cec}
    sweeps through {!Engine.run}. Both sweepers ({!Stp_sweep},
    {!Fraig}) are this function under their presets. *)

val run :
  ?config:Engine.config -> Aig.Network.t -> Aig.Network.t * Stats.t
(** Sweeps like {!Engine.run}; when [config.verify] is set, then checks
    the result against the input with {!Cec.check}, under
    {!Obs.Fault.bypass}. Raises {!Engine.Verification_failed} if that
    check refutes — or cannot confirm — equivalence. Without
    [config.verify] it is exactly {!Engine.run}. *)

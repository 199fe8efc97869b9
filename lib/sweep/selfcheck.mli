(** Self-verifying sweep: run the engine, then prove the result.

    {!Engine.run} with [config.verify] already cross-simulates the
    result against the input; this module adds the full SAT-backed
    equivalence check ({!Cec.check}) on top, turning "the sweep is
    sound by construction" into a checked runtime guarantee. The cost
    is roughly a second sweep, so it is opt-in — flows enable it with
    [--self-verify]. Both sweepers ({!Stp_sweep}, {!Fraig}) are this
    function under their presets. *)

val run :
  ?config:Engine.config -> Aig.Network.t -> Aig.Network.t * Stats.t
(** Sweeps like {!Engine.run}; when [config.verify] is set, then checks
    the result against the input with {!Cec.check}. Raises
    {!Engine.Verification_failed} if either check refutes — or cannot
    confirm — equivalence. Without [config.verify] it is exactly
    {!Engine.run}. *)

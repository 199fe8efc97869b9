(** Semi-tensor-product circuit simulation and SAT-sweeping.

    Umbrella module: re-exports every sub-library under one namespace.
    Simulate by compiling a plan once and executing it
    ({!Sim.Kernel.compile_aig} or {!Sim.Kernel.compile_klut}, then
    {!Sim.Kernel.execute}); sweep with {!Sweep.Stp_sweep.sweep} or the
    [&fraig] baseline {!Sweep.Fraig.sweep}. See the README for a tour and
    DESIGN.md for the paper mapping. *)

module Util = Sutil
module Obs = Obs
module Tt = Tt
module Stp = Stp
module Aig = Aig
module Klut = Klut
module Sim = Sim
module Sat = Sat
module Sweep = Sweep
module Gen = Gen
module Synth = Synth
module Report = Report
module Pass = Pass
module Script = Script

let version = "1.0.0"

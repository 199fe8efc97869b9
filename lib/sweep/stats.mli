(** Sweeping statistics — the quantities Table II reports, plus the
    phase breakdown and SAT-solver internals the run reports expose.

    The query counters ([sat_*], [certified_*], the pool's share of
    [certificate_rejected], [cache_*], [cube_*]) and the solver
    internals are written by the solver pool ({!Dispatch}) alone: its
    members count into private records that are added in on the
    calling domain when each wave joins, and the incremental solvers'
    totals when the pool shuts down. The engine writes the rest.

    "SAT calls" in the paper counts satisfiable outcomes; "Total SAT
    calls" adds unsatisfiable and undetermined ones. Window refinements
    are the STP engine's SAT-free merge/split decisions.

    All times are wall-clock seconds ({!Obs.Clock}) — CPU time would sum
    over domains and misreport parallel runs. The phases partition the
    engine's instrumented work:

    - [sim_time] — incremental signature computation while rebuilding
      (the engine's "initial simulation" work);
    - [plan_compile_time] — compiling/extending the kernel simulation
      plan for the growing fresh network;
    - [guided_time] — SAT-guided initial pattern generation;
    - [resim_time] — batch counter-example resimulations;
    - [window_time] — both window tiers: cut-frontier evaluation (with
      its DRUP replay in certified mode) and PI-support table
      construction/comparison;
    - [sat_time] — the solver pool's waves ({!Dispatch.run_wave}):
      equivalence queries in the CDCL solver, with a cross-run cache
      armed also its lookups, replays and stores, and under a conflict
      limit the cube-and-conquer re-attack including its set-up
      (choosing cone PIs, building the cubes);
    - [total_time] — the whole sweep, including untimed glue, so the sum
      of the phases is always <= [total_time]. *)

type exhaustion = {
  reason : string;  (** [Obs.Budget.reason_to_string] spelling *)
  phase : string;  (** engine phase where exhaustion was detected *)
}
(** Why and where a budgeted sweep stopped proving and fell back to
    structural translation. *)

type t = {
  mutable sat_sat : int;  (** satisfiable SAT calls *)
  mutable sat_unsat : int;
  mutable sat_undet : int;
  mutable sat_retries : int;
      (** escalated re-queries of pairs that first came back undetermined *)
  mutable merges : int;  (** node-to-node merges proven *)
  mutable const_merges : int;  (** nodes proven constant *)
  mutable window_merges : int;
      (** merges decided by exhaustive windows, either tier *)
  mutable cut_merges : int;
      (** the subset of [window_merges] proved by the cut-frontier tier
          ({!Cut_window}) rather than the PI-support window *)
  mutable window_splits : int;  (** candidate pairs split by windows *)
  mutable ce_patterns : int;  (** counter-example patterns appended *)
  mutable initial_patterns : int;
  mutable resimulations : int;
  mutable sim_time : float;
  mutable plan_compile_time : float;
      (** compiling/extending the kernel simulation plan as the fresh
          network grows ({!Sim.Kernel.extend_aig}) — kept apart from
          [sim_time] so compile cost stays visible *)
  mutable guided_time : float;
  mutable resim_time : float;
  mutable window_time : float;
  mutable sat_time : float;
  mutable total_time : float;
  mutable sat_decisions : int;  (** solver internals, whole sweep *)
  mutable sat_conflicts : int;
  mutable sat_propagations : int;
  mutable sat_learned : int;
  mutable certified_unsat : int;
      (** certified mode: UNSAT merges whose DRUP proof replayed — on a
          healthy certified run this equals [sat_unsat] *)
  mutable certified_models : int;
      (** certified mode: SAT answers whose model validated (satisfies
          the CNF and distinguishes the two cones on re-evaluation) *)
  mutable certificate_rejected : int;
      (** certified mode: solver answers whose certificate failed to
          replay; each one degrades its node to structural translation,
          exactly like budget exhaustion. Zero unless the solver lies. *)
  mutable guided_consts : int;
      (** nodes the guided-pattern initialization proved constant on the
          input network. The engine merges them through the ordinary
          class machinery (a constant node's signature always collides
          with node 0), so this records guided work rather than extra
          merges. *)
  mutable cube_splits : int;
      (** parallel dispatch: hard miters (conflict schedule exhausted)
          split cube-and-conquer style across the solver domains *)
  mutable cube_queries : int;
      (** parallel dispatch: per-cube solver queries issued by splits;
          each also counts into the ordinary sat_* outcome counters *)
  mutable cache_hits : int;
      (** cross-run cache: entries served — a validated equivalence
          certificate (counted as a merge but not as a SAT call) or a
          distinguishing counterexample *)
  mutable cache_misses : int;
      (** cross-run cache: lookups that found no entry; each falls
          through to a fresh standalone solve whose result is stored *)
  mutable cache_rejected : int;
      (** cross-run cache: entries refused — quarantined as corrupt by
          the store, malformed bodies, certificates that failed paranoid
          replay, or counterexamples that do not distinguish the pair.
          Every rejection degrades to a miss, never to a trusted hit. *)
  mutable budget_exhausted : exhaustion option;
      (** set once, at the moment the engine's budget first reports
          exhaustion; [None] on an unbudgeted or in-budget run *)
}

val create : unit -> t
val total_sat_calls : t -> int

val simulation_time : t -> float
(** The scope of the paper's Table II "Simulation" column: all non-SAT
    instrumented work — [sim + plan_compile + guided + resim + window]. *)

val phase_times : t -> (string * float) list
(** The six instrumented phases, in a stable order (not including
    [total_time]). *)

val to_json : t -> Obs.Json.t
(** The sweep section of a run report: counters, [phases_s] (with
    [total]), a [sat_solver] object with decisions / conflicts /
    propagations / learned, and [budget_exhausted] ([null], or an object
    with [reason] and [phase]). Schema documented in EXPERIMENTS.md. *)

val pp : Format.formatter -> t -> unit
(** Renders {!to_json} as text, so both use the same names: one
    [section: key=value ...] line per section ([counters], [phases_s]
    in seconds to the millisecond, [sat_solver], [budget_exhausted]),
    wrapped with a two-space indent. *)

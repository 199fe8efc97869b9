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

    Repeatability at [sat_domains] >= 2: while every query is answered
    (no conflict limit, no budget cut) and no walk reaches
    [max_compares], the counters the swept network decides ([merges],
    [window_merges], [cut_merges], [const_merges], [sat_unsat]) repeat
    exactly. Scheduling picks which member's solver answers a query,
    and with it the model of a satisfiable one, so the counters that
    follow the models ([sat_sat], [ce_patterns], [total_sat_calls],
    [window_splits], [resimulations], [certified_models], the solver
    internals) vary from run to run: three leon2 runs read [sat_sat]
    357, 343, 341. At one domain every counter repeats.

    Time is not a field: the engine's work runs in spans on [spans]
    ({!Obs.Span}), each phase is the self time its spans billed, and
    the phases partition the sweep. The root span ({!root}) is the
    whole {!Engine.run}; its duration is [total_time], its own self
    time the remainder. DESIGN.md "Observability" gives each phase's
    scope. *)

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
  spans : Obs.Span.t;  (** the sweep's span recorder *)
}

val create : unit -> t
val total_sat_calls : t -> int

val root : string

val phase_times : t -> (string * float) list
(** Self seconds per phase, in report order. *)

val total_time : t -> float

val simulation_time : t -> float
(** The scope of the paper's Table II "Simulation" column: all non-SAT
    phases of the paper's engine — [sim + plan_compile + guided + resim
    + window]. *)

val to_json : t -> Obs.Json.t
(** The sweep section of a run report: counters, [phases_s]
    ({!phase_times}, then [total]), a [sat_solver] object with
    decisions / conflicts / propagations / learned, and
    [budget_exhausted] ([null], or an object with [reason] and
    [phase]). Schema documented in EXPERIMENTS.md. *)

val pp : Format.formatter -> t -> unit
(** Renders {!to_json} as one [section: key=value ...] line per
    section, seconds to the millisecond, wrapped with a two-space
    indent. *)

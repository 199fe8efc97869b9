(** A pool of solver domains that answers every candidate query the
    sweep engine's window tiers leave open, with two per-query
    strategies.

    - {b Incremental} (no cache): each pool member owns one incremental
      {!Sat.Solver} with its own {!Sat.Tseitin} environment over the
      shared fresh network and, in certified mode, its own {!Sat.Drup}
      checker attached before the first clause — so every domain
      carries an independent proof stream and every merge it proves
      replays on its own checker.
    - {b Cached} (created with [~cache]): a member extracts the pair's
      canonical cone ({!Cone_cert.extract}) and looks its key up. A hit
      is re-validated before it is served: its certificate replays
      (certified or paranoid mode) or its counterexample distinguishes
      the pair on the AIG. A miss or a rejected entry is proven by
      {!Cone_cert.solve} on a throwaway solver, which runs the whole
      conflict schedule, and its verdict is stored. Undetermined and
      rejected answers are never stored.

    Both strategies answer with a {!Sat.Tseitin.equiv_result}, so one
    walk turns answers into retries, outcomes and counterexamples. In
    certified mode every solver counterexample is re-evaluated on the
    AIG before it is returned; a cached one always is.

    The pool owns a query's whole life. The engine drives it in waves
    (see DESIGN.md "Parallel dispatch"): it collects tasks while
    translating nodes, freezes the network, and calls {!run_wave}.
    There the workers drain the task queue through
    {!Sutil.Par.Pool.drain}, writing only their own result slots; the
    pairs whose conflict schedule ran dry are split across all
    assignments of a few cone PIs and re-attacked on the members'
    incremental solvers (cube-and-conquer; cube verdicts are not
    stored). Each member tallies its answers into its own counters,
    which the calling domain adds into the sweep's {!Stats} when the
    wave joins. The engine then applies the results in task order as
    the single writer.

    Thread-safety contract: the network must not be mutated between the
    start of {!run_wave} and its return. Two things are shared across
    domains: the {!Obs.Budget} (sticky atomic exhaustion — any worker
    can trip degradation for all) and the cache, whose operations must
    take concurrent calls. *)

type cache_found =
  | Cache_hit of Obs.Json.t  (** the stored entry body, still untrusted *)
  | Cache_miss
  | Cache_corrupt
      (** an entry existed but failed the store's integrity checks and
          was quarantined; counted as rejected *)

type cache_ops = {
  cache_find : key:string -> cache_found;
  cache_store : key:string -> Obs.Json.t -> unit;
}
(** A cross-run equivalence store keyed by {!Cone_cert} digests (see
    {!Engine.cache_ops}). Called from every pool member. *)

type cand = {
  c_rep : int;  (** earlier fresh node to compare against *)
  c_compl : bool;  (** complement relation per the frozen signatures *)
  c_window_eq : bool;
      (** the exhaustive window already proved this equality — merge
          without a solver query. Must be the last candidate of its
          task. *)
}

type task = { t_node : int; t_cands : cand list }
(** One fresh node with its pre-filtered candidate walk: window splits
    removed (and charged to [max_compares]) at collect time, list
    truncated to the node's remaining compare budget. *)

type outcome =
  | Merged of Aig.Lit.t * bool
      (** proven merge target; [true] when a window-equal candidate
          closed the walk (no SAT involved) *)
  | Exhausted
      (** no proof: the candidate list ran out, a certificate was
          rejected (the node degrades), or cube-and-conquer did not
          settle the pair *)
  | Stopped  (** shared budget exhausted mid-walk or before the cubes *)

type result = {
  mutable r_outcome : outcome;
  mutable r_ces : bool array list;
      (** validated counterexamples in reverse attempt order; the
          engine applies them in order at merge time *)
}

type t

val create :
  domains:int ->
  certify:bool ->
  conflict_limits:int list ->
  cache:cache_ops option ->
  cache_paranoid:bool ->
  Aig.Network.t ->
  Obs.Budget.t ->
  Stats.t ->
  t
(** Spawns the worker pool and one solver/env/checker per member.
    [domains] is clamped to at least 1 (a 1-domain pool runs tasks on
    the calling domain — same code path, no concurrency).
    [conflict_limits] is the per-query schedule of {!Engine.config}.
    With [cache] set, {!run_wave} queries use the cache strategy;
    [cache_paranoid] replays stored certificates even outside certified
    mode. The pool's query counters and solver totals go into the given
    {!Stats.t}, and only from the calling domain. *)

val run_wave : t -> task array -> result array
(** Answers every task completely, one result slot per task (slot [i]
    belongs to [tasks.(i)] regardless of which domain ran it): the walk,
    the conflict schedule, counterexample validation and the
    cube-and-conquer re-attack of hard pairs. Returns after all of it
    has finished and the members' counters have been added into the
    sweep's {!Stats}; the caller applies merges and counterexamples in
    task order. *)

val shutdown : t -> unit
(** Joins the worker pool and adds the members' incremental-solver
    totals (decisions, conflicts, propagations, learnt clauses) into
    the sweep's {!Stats}. The pool must not be used afterwards. *)

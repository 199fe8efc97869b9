(** A pool of solver domains for the sweep engine's SAT queries, with
    two per-query strategies.

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
    walk turns answers into counts, retries, [Hard]/[Stopped] outcomes
    and counterexamples. In certified mode every solver counterexample
    is re-evaluated on the AIG before it is returned; a cached one
    always is.

    The engine drives the pool in waves (see DESIGN.md "Parallel
    dispatch"): it collects tasks while translating nodes, freezes the
    network, calls {!run_wave} (workers drain the task queue through
    {!Sutil.Par.Pool.drain}, writing only their own result slots), then
    applies the results in task order as the single writer. Hard miters
    that exhausted the retry schedule can be re-attacked with
    {!run_cubes}, which splits the query across all assignments of a few
    cone PIs on the members' incremental solvers (cube verdicts are not
    stored).

    Thread-safety contract: the network must not be mutated between the
    start of {!run_wave}/{!run_cubes} and its return. Two things are
    shared across domains: the {!Obs.Budget} (sticky atomic exhaustion —
    any worker can trip degradation for all) and the cache, whose
    operations must take concurrent calls. *)

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

type counts = {
  mutable n_unsat : int;
  mutable n_sat : int;  (** counterexamples that passed validation *)
  mutable n_undet : int;
  mutable n_retries : int;
  mutable n_cert_unsat : int;
  mutable n_cert_models : int;
  mutable n_cert_rejected : int;
  mutable n_cache_hits : int;
  mutable n_cache_misses : int;
  mutable n_cache_rejected : int;
}
(** One task's query outcomes; the engine folds them into {!Stats}. A
    cache hit counts as a hit only, never as a SAT outcome. *)

type outcome =
  | Merged of Aig.Lit.t * bool
      (** proven merge target; [true] when a window-equal candidate
          closed the walk (no SAT involved) *)
  | Exhausted
      (** candidate list exhausted without a proof (also: a rejected
          certificate degraded the node) *)
  | Hard of cand
      (** the retry schedule ran dry on this candidate — a
          cube-and-conquer target *)
  | Stopped  (** shared budget exhausted mid-walk *)

type result = {
  mutable r_outcome : outcome;
  mutable r_ces : bool array list;
      (** validated counterexamples in reverse attempt order; the
          engine applies them in order at merge time *)
  r_counts : counts;
}

type t

val create :
  domains:int ->
  certify:bool ->
  conflict_limit:int option ->
  retry_schedule:int list ->
  cache:cache_ops option ->
  cache_paranoid:bool ->
  Aig.Network.t ->
  Obs.Budget.t ->
  t
(** Spawns the worker pool and one solver/env/checker per member.
    [domains] is clamped to at least 1 (a 1-domain pool runs tasks on
    the calling domain — same code path, no concurrency). With [cache]
    set, {!run_wave} queries use the cache strategy; [cache_paranoid]
    replays stored certificates even outside certified mode. *)

val domains : t -> int

val run_wave : t -> task array -> result array
(** Solves every task, one result slot per task (slot [i] belongs to
    [tasks.(i)] regardless of which domain ran it). Returns after all
    tasks finish; the caller applies merges/counterexamples in task
    order. *)

type cube_query = {
  q_node : int;
  q_rep : int;
  q_compl : bool;
  q_cube : (int * bool) list;  (** PI node -> forced value *)
}

val run_cubes :
  t ->
  conflict_limit:int option ->
  cube_query array ->
  Sat.Tseitin.equiv_result array
(** One incremental query per cube, the cube joined to the query
    assumptions (so certified UNSATs replay under their own cube);
    [Undetermined] for a cube the budget stopped. The caller merges a
    hard pair only when {e every} cube of its full [2^k] enumeration is
    [Equivalent]; any [Counterexample] is an ordinary, validated one. *)

val tally : t -> counts -> served:bool -> Sat.Tseitin.equiv_result -> unit
(** Counts one answer, [served] when the cache answered it — the walk's
    and the cube phase's one mapping from answers to {!counts}. *)

val solver_stats : t -> Sat.Solver.stats
(** Field-wise sum over all pool members, including the cache
    strategy's throwaway solvers. *)

val shutdown : t -> unit
(** Joins the worker pool. The pool must not be used afterwards. *)

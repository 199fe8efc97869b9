(** A pool of solver domains for the sweep engine's SAT queries.

    Each pool member owns one incremental {!Sat.Solver} with its own
    {!Sat.Tseitin} environment over the shared fresh network and, in
    certified mode, its own {!Sat.Drup} checker attached before the
    first clause — so every domain carries an independent proof stream
    and every merge it proves replays on its own checker.

    The engine drives the pool in waves (see DESIGN.md "Parallel
    dispatch"): it collects tasks while translating nodes, freezes the
    network, calls {!run_wave} (workers drain the task queue through
    {!Sutil.Par.Pool.drain}, writing only their own result slots), then
    applies the results in task order as the single writer. Hard miters
    that exhausted the retry schedule can be re-attacked with
    {!run_cubes}, which splits the query across all assignments of a few
    cone PIs.

    Thread-safety contract: the network must not be mutated between the
    start of {!run_wave}/{!run_cubes} and its return; the shared
    {!Obs.Budget} is the only cross-domain channel (sticky atomic
    exhaustion — any worker can trip degradation for all). *)

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
  mutable n_undet : int;
  mutable n_retries : int;
  mutable n_cert_unsat : int;
  mutable n_cert_rejected : int;
}

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
  mutable r_ces : (bool array * int * bool) list;
      (** counterexamples in reverse attempt order:
          [(pattern, rep, compl)] — the engine validates and applies
          them in order at merge time *)
  r_counts : counts;
}

type scratch
(** Reusable arrays for {!ce_distinguishes}; one per domain. *)

val scratch : unit -> scratch

val ce_distinguishes :
  scratch -> Aig.Network.t -> bool array -> int -> int -> bool -> bool
(** [ce_distinguishes sc net ce nd r compl] evaluates the cones of [nd]
    and [r] under the PI assignment [ce] and reports whether [nd]
    differs from [r] (complemented when [compl]). Linear in the two
    cones. The workers use it to skip candidates an earlier
    counterexample of the same walk already refutes; the engine uses it
    to validate counterexamples before they refine the classes. *)

type t

val create :
  domains:int ->
  certify:bool ->
  conflict_limit:int option ->
  retry_schedule:int list ->
  Aig.Network.t ->
  Obs.Budget.t ->
  t
(** Spawns the worker pool and one solver/env/checker per member.
    [domains] is clamped to at least 1 (a 1-domain pool runs tasks on
    the calling domain — same code path, no concurrency). *)

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

type cube_answer = C_unsat | C_ce of bool array | C_undet | C_uncert

val run_cubes : t -> conflict_limit:int option -> cube_query array -> cube_answer array
(** One solver query per cube, the cube joined to the query assumptions
    (so certified UNSATs replay under their own cube). The caller merges
    a hard pair only when {e every} cube of its full [2^k] enumeration
    comes back [C_unsat]; any [C_ce] is an ordinary counterexample. *)

val solver_stats : t -> Sat.Solver.stats
(** Field-wise sum over all pool members. *)

val shutdown : t -> unit
(** Joins the worker pool. The pool must not be used afterwards. *)

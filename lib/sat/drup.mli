(** Standalone DRUP proof checker: reverse-unit-propagation replay of a
    solver's clausal proof stream, plus model validation for [Sat]
    answers.

    {b Trusted base.} This module shares {e no} propagation code with
    {!Solver} — it owns its clause table, watch lists, assignment array
    and trail, and implements unit propagation from scratch. The point
    of certification is that a soundness bug in the solver's CDCL
    machinery cannot also hide here: to accept a wrong [Unsat] both the
    solver's search {e and} this checker's ~200 lines of propagation
    would have to fail in compatible ways. What remains trusted is:

    - this module's own unit propagation and clause bookkeeping;
    - the shared literal encoding ([2*var], [+1] for negation) and the
      {!Sutil.Vec} growable-array container (data structure, not
      deduction);
    - the OCaml runtime and the caller wiring the stream faithfully.

    The checker is {e online}: {!attach} it to a solver and every
    learnt clause is RUP-verified against the checker's own database
    the moment it is emitted. A derivation that fails the check is
    rejected (counted, never added), so later certifications cannot
    silently lean on it. Deletions that would erase the reason of a
    root-level propagation are skipped — forgetting a reason clause is
    the classic unsoundness of naive DRUP checkers.

    Verdict discipline: [Ok] means the certificate replayed against
    this checker's database; [Error] carries a human-readable reason.
    A rejected certificate must be treated like a resource-budget
    failure — degrade, don't trust. *)

type t

val create : unit -> t

val feed : t -> Solver.proof_step -> unit
(** Consume one proof step: inputs are recorded as axioms, learnt
    clauses are RUP-checked (and dropped if the check fails), deletions
    remove clauses from the database. Use directly when teeing the
    stream to several consumers; otherwise {!attach}. *)

val attach : t -> Solver.t -> unit
(** [attach t solver] installs {!feed} as the solver's proof logger.
    Attach before the first [add_clause]. *)

val add_input : t -> int list -> unit
(** Record an axiom clause directly — for replaying a DIMACS file
    without a solver. *)

val add_derived : t -> int list -> (unit, string) result
(** RUP-check a derived clause against the current database; add it if
    the check succeeds. [Error] rejects the derivation (the clause is
    not added). The standalone proof replay of [sat_cli --check-proof]
    feeds every proof line through this. *)

val delete : t -> int list -> unit
(** Remove a clause (matched as a literal set) from the database: the
    most recently added live copy when there are duplicates. A no-op if
    the clause is unknown; skipped if the clause is currently the
    reason of a root-level propagation (soundness). The literal-set
    index this needs is built by the first [delete] and maintained from
    then on, so a checker that never deletes (a certificate replay)
    never hashes a clause. *)

val conflicting : t -> bool
(** The database has been refuted: some addition produced a root-level
    conflict. From here every derivation is trivially implied. *)

val certify_unsat : t -> assumptions:int list -> (unit, string) result
(** Certifies an [Unsat] answer: unit propagation on the checker's own
    database, from the given assumption literals, must reach a
    conflict. With no assumptions this demands the database itself be
    refuted (a complete DRUP proof ending in the empty clause). *)

val certify_model : t -> value:(int -> bool) -> (unit, string) result
(** Certifies a [Sat] answer: [value lit] (the solver's claimed model)
    must satisfy every live clause of the checker's database. *)

val num_checked : t -> int
(** Derivations that passed the RUP check. *)

val num_rejected : t -> int
(** Derivations that failed the RUP check and were dropped. *)

val num_deleted : t -> int

val last_error : t -> string option
(** The most recent rejection reason, for diagnostics. *)

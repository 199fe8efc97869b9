(** Standalone, certificate-carrying equivalence queries over extracted
    cone pairs — the unit of work the cross-run cache stores.

    The engine's incremental solver is the wrong producer for cacheable
    certificates: its proofs lean on clauses from earlier queries and
    retired selectors, so they only replay inside the run that made
    them. This module instead extracts the two candidate literals'
    shared TFI into a fresh standalone network with a deterministic
    node numbering, derives a content key from that canonical form, and
    proves the pair on a throwaway solver whose input-clause stream is
    a pure function of the extraction ({!encode}). The recorded learnt
    clauses are therefore a self-contained DRUP certificate: any later
    process that streams the same encoding into a checker can replay
    them ({!replay}) and re-check the refutation without trusting the
    producer, and without running a solver. *)

type t = {
  pc_net : Aig.Network.t;  (** standalone copy of the pair's joint TFI *)
  pc_key : string;  (** hex digest of the canonical serialization *)
  pc_leaves : int array;
      (** extracted PI index -> PI index in the source network, for
          expanding counterexamples back to source-network patterns *)
  pc_a : Aig.Lit.t;  (** first root, as a literal of [pc_net] *)
  pc_b : Aig.Lit.t;
      (** second root in [pc_net]; the candidate's complement flag is
          baked in here, so it participates in {!t.pc_key} *)
}

val extract : Aig.Network.t -> Aig.Lit.t -> Aig.Lit.t -> t
(** [extract net a b] copies the joint TFI of [a] and [b] into a fresh
    network, nodes renumbered densely in (source) topological order.
    Structurally identical cone pairs extracted from any network — or
    any run — yield byte-identical serializations, hence equal keys.
    The work and the allocation are proportional to the cone, not to
    [net]. *)

val encode : t -> (int list -> unit) -> int * int array
(** [encode pc emit] streams the canonical CNF of the pair's miter into
    the clause sink [emit] and returns the variable count and the
    variable of each [pc_net] node ([-1] for a node the encoding does
    not reach). Literals use {!Sat.Solver}'s packing. The stream is a
    pure function of [pc]: the Tseitin clauses of the cone, each node
    numbered when a depth-first walk from [pc_a], then [pc_b], first
    reaches it, then the miter output [m <-> a xor b] and the selector
    clause [s -> m]. The selector is the last variable, [count - 1],
    and the pair is equivalent iff the CNF is unsatisfiable under it.
    Every clause mentions only variables numbered before it is emitted,
    so a sink that creates variables lazily (a solver) numbers them
    exactly as the encoding does. {!solve} feeds a solver from this
    function and {!replay} feeds a checker, so a certificate means the
    same thing on both sides. *)

type entry =
  | E_equiv of int array list
      (** proven equivalent; the payload is the DRUP certificate: every
          learnt clause of the refutation, in emission order, in the
          solver literal numbering induced by the canonical encoding *)
  | E_diff of bool array
      (** distinguished; the payload is the witness assignment over the
          {e extracted} PIs (index [i] = extracted PI [i]) *)

type outcome =
  | O_equiv of int array list
  | O_diff of bool array
  | O_undet  (** budget exhausted — never cached *)
  | O_uncert of string  (** certificate failed online replay *)

type stats = {
  s_retries : int;  (** extra solve calls beyond the first *)
  s_solver : Sat.Solver.stats;
}

val solve :
  ?conflict_limits:int list ->
  ?deadline:float ->
  certify:bool ->
  t ->
  outcome * stats
(** Proves the pair on a fresh solver. [conflict_limits] is the budget
    schedule: each limit is tried in order on the same (incremental)
    solver, [O_undet] only after the last; the empty/omitted list means
    one unbudgeted call. Learnt clauses are always recorded — they are
    the certificate an [E_equiv] cache entry carries. With
    [~certify:true] an online {!Sat.Drup} checker additionally replays
    every derivation as it is emitted and the final verdict is
    certified ([O_uncert] on failure), same discipline as the engine's
    certified mode. *)

val replay : t -> int array list -> (unit, string) result
(** [replay pc proof] streams {!encode} straight into a fresh
    {!Sat.Drup} checker (no solver is created), RUP-checks every
    certificate clause in order, and demands the final database refute
    the miter under the selector assumption. A clause naming a variable
    at or beyond the encoding's count is an [Error] before it reaches
    the checker, so a forged literal cannot make the checker size its
    arrays by it. [Ok] means the stored certificate proves this
    extraction equivalent — the paranoid-mode gate for serving a cache
    hit. The cost is linear in the cone plus the RUP checks. *)

val entry_to_json : entry -> Obs.Json.t
val entry_of_json : Obs.Json.t -> (entry, string) result
(** Stable v1 codec for cache bodies. [entry_of_json] is total: any
    shape surprise is an [Error], never an exception. *)

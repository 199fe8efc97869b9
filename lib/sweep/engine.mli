(** The SAT-sweeping engine shared by both sweepers.

    One forward pass rebuilds the network: every old AND node is
    translated into a fresh network where structural hashing, simulation
    signatures (candidate equivalence classes up to complementation),
    exhaustive-window checks, and finally SAT queries decide whether the
    node merges onto an earlier one. Merges are applied only on proof
    (window exactness or UNSAT), so the result is always functionally
    equivalent to the input.

    The engine collects and applies. Structural hits and window
    verdicts settle on the spot; every candidate walk that still needs a
    SAT query goes, in waves, to the solver pool ({!Dispatch}), which
    answers it completely — retries, cube splits and the query counters
    in {!Stats} included. The engine then applies the proven merges and
    the counterexamples in node order.

    The [&fraig]-style baseline and the paper's STP sweeper are the same
    engine under different configurations: the STP configuration adds
    SAT-guided initial patterns and two exhaustive window tiers in front
    of the solver — a <=5-leaf cut-frontier window per candidate pair
    ({!Cut_window}), then the pair's <=16-leaf PI-support window; the
    baseline relies on random initial patterns and counter-example
    resimulation alone.

    {!config} is the one way to configure a sweep: {!Stp_sweep.sweep}
    and {!Fraig.sweep} take a whole record (defaulting to {!stp_config}
    and {!fraig_config}), and every caller — the pass manager, the CLIs,
    the daemon, the ablation benches — adjusts one of the two presets by
    functional update, e.g.
    [{ stp_config with conflict_limits = [ 100 ]; certify = true }]. *)

exception Verification_failed of string
(** Raised by {!Selfcheck.run} when [config.verify] is set and the swept
    network cannot be proven equivalent to the input. *)

type cache_found = Dispatch.cache_found =
  | Cache_hit of Obs.Json.t  (** the stored entry body, still untrusted *)
  | Cache_miss
  | Cache_corrupt
      (** an entry existed but failed the store's integrity checks and
          was quarantined; counted into [Stats.cache_rejected] *)

type cache_ops = Dispatch.cache_ops = {
  cache_find : key:string -> cache_found;
  cache_store : key:string -> Obs.Json.t -> unit;
}
(** Interface to a cross-run equivalence cache (implemented by
    [Svc.Cache], which lives above this library — dependency-inverted
    so the engine never sees the disk). Keys are {!Cone_cert} canonical
    cone-pair digests; bodies are {!Cone_cert.entry_to_json} values.
    Every member of the solver pool calls both operations, so they
    must be safe to call from several domains at once. Everything
    [cache_find] returns is untrusted input: equivalence certificates
    are replayed (certified/paranoid modes) and counterexamples
    re-evaluated on the AIG before being served, so a hostile store
    costs time, never soundness. *)

type config = {
  seed : int64;
  initial_words : int;
      (** random initial pattern words (32 patterns each) *)
  conflict_limits : int list;
      (** the per-query conflict schedule. [[]] (the presets) is one
          unlimited attempt — the paper's disabled limit. Otherwise
          attempt [i] of a pair runs under element [i]: a pair the first
          limit leaves undetermined is re-tried (budget permitting)
          under each later one in turn, each retry counted in
          [Stats.sat_retries]. A pair still undetermined after the last
          becomes a cube-and-conquer target, whose cubes each run under
          the last limit. The shape {!Cone_cert.solve} takes. *)
  resim_batch : int;
      (** counter-examples accumulated before a batch resimulation *)
  max_compares : int;
      (** candidates SAT-checked per node before giving up — the engine's
          rendition of the paper's TFI bound [n = 1000] *)
  guided_init : bool;
  guided_queries : int;
      (** candidates guided initialization examines at most; a
          cut-proven one counts but costs no SAT call *)
  window_refine : bool;
      (** the window tiers, in front of the solver for every candidate
          pair. First a cut-frontier window ({!Cut_window}): exhaustive
          simulation over a joint structural cut of at most 5 leaves,
          which can only prove a merge (counted in [Stats.cut_merges];
          in certified mode its case-split proof must replay on
          {!Sat.Drup} first). Then, for what it leaves open, the
          PI-support window: when the pair's joint PI support has at
          most [window_max_leaves] leaves, lifted truth tables prove or
          refute the pair exactly. The [sweep.fail_window] fault
          switches both off. *)
  window_max_leaves : int;
      (** leaf budget of the PI-support window (the cut tier's limits
          are fixed constants of {!Cut_window}) *)
  sim_domains : int;
      (** OCaml domains for bulk (re)simulation passes; [1] = sequential.
          The word-sharded parallel simulators are bit-identical to the
          sequential ones, so this is purely a throughput knob. *)
  par_threshold : int;
      (** minimum pattern count before the parallel path is taken — below
          it the fork-join overhead outweighs the sharded work *)
  sat_domains : int;
      (** size of the solver pool ({!Dispatch}; default [1], values
          below [1] count as [1]), cached or not. Each member owns an
          incremental solver and, in certified mode, its own DRUP
          checker; with [cache] armed it answers queries through the
          cache instead. The engine collects per-node candidate tasks
          in waves, each ending before the first node with a fanin
          whose task awaits its verdict, freezes the network while the
          pool answers them completely, then applies the results in
          task order as the single writer. A one-domain pool runs its
          tasks on the calling domain and spawns nothing. While every
          query is answered (no conflict limit, no budget cut) the
          swept network is the same for every pool size, cached or
          not, and so are the counters it decides; those that follow
          the solvers' models vary at two or more ({!Stats} lists
          both). See DESIGN.md "Parallel dispatch". *)
  budget : Obs.Budget.t option;
      (** the budget the sweep runs under; [None] = unlimited. A
          standalone call builds one ([Some (Obs.Budget.create ~timeout
          ())]); a pipeline hands over its shared budget, a daemon an
          {!Obs.Pool} lease's. Once its deadline passes or a cap is
          reached, the engine stops issuing SAT queries, finishes the
          in-flight merge atomically, translates the remaining nodes
          structurally, and records the event in
          [Stats.budget_exhausted]; the result is still functionally
          equivalent to the input — it just keeps more redundancy. The
          engine charges every SAT query's conflicts/propagations to it
          ({!Obs.Budget.charge}), so caps hold across passes and across
          the dispatch pool's domains, and a pool can reclaim unspent
          allowance at release. Overshoot past a conflict/propagation
          cap is bounded by one query's conflict limit (charges are
          per-query). *)
  verify : bool;
      (** post-sweep self-check, read by {!Selfcheck.run} (and so by
          both sweepers and the [sweep] pass), not by {!run}: prove the
          result equivalent to the input with {!Cec.check}, under
          {!Obs.Fault.bypass}, and raise {!Verification_failed} if it
          cannot. *)
  certify : bool;
      (** certified mode: a {!Sat.Drup} checker replays the solver's
          proof stream, UNSAT-driven merges are accepted only after
          their refutation replays on the checker's own database, and
          counterexamples must satisfy the CNF and re-distinguish the
          two cones before they refine the classes. A rejected
          certificate degrades its node to structural translation (like
          budget exhaustion) and counts into
          [Stats.certificate_rejected]. See DESIGN.md "Trust
          boundary". *)
  cache : cache_ops option;
      (** cross-run equivalence cache. When armed, the solver pool
          answers every query the window leaves open through it
          ({!Dispatch}'s cache strategy): the pool member extracts the
          pair into a canonical standalone cone ({!Cone_cert}), looks
          it up by content key, re-validates a hit, and otherwise
          proves the pair on a throwaway solver whose self-contained
          certificate (or counterexample) it stores back, running the
          whole [conflict_limits] schedule there. The walk, the
          counting and the cube-and-conquer fallback are the uncached
          sweep's. Undetermined and cube verdicts are never stored, so
          a warm sweep replays the cold run's verdicts and writes the
          same network. *)
  cache_paranoid : bool;
      (** replay stored DRUP certificates through a fresh {!Sat.Drup}
          before serving a hit even outside certified mode — the
          defense against a cache produced by a buggy or hostile
          writer, where the checksum (which only defends against torn
          or corrupted files) is clean but the proof is junk. *)
}

val fraig_config : config
(** Baseline: random init, no windows — [&fraig]'s recipe. *)

val stp_config : config
(** The paper's engine: guided init + both window tiers, PI-support
    window limit 16. *)

val run : ?config:config -> Aig.Network.t -> Aig.Network.t * Stats.t
(** Sweeps; the result network contains no two provably-equivalent nodes
    the engine could find, and is functionally equivalent to the input
    (same PIs/POs). Defaults to {!stp_config}. *)

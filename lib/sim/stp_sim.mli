(** The STP-based simulator (Section III of the paper).

    Each LUT's function is held as a logic matrix — concretely the packed
    words of its truth table — and a node's signature is produced by one
    matrix pass per 32-pattern block: the fanin bits are gathered into
    column indices and the matrix columns are selected directly. No
    per-pattern Boolean evaluation, no bit-by-bit LUT decomposition.

    Both entry points are thin wrappers over the compiled kernel plan
    ({!Kernel}): narrow LUTs (k <= 8) execute as compiled selection
    cascades ({!Stp.Cascade}), wide LUTs as matrix passes, ANDs as word
    kernels. The tables are bit-identical to the {!Bitwise} engines'.

    [simulate_specified] is Algorithm 1's mode [s]: the network is first
    restructured by the circuit-cut algorithm (multi-fanout-free regions
    collapse into single k-LUTs whose matrices are composed by STP), then
    only the cut roots are simulated.

    [?domains] (default 1) shards the packed pattern words into
    contiguous ranges simulated in independent OCaml domains; plans are
    compiled sequentially first, so the parallel tables are bit-identical
    to the sequential ones. *)

val simulate_klut :
  ?domains:int ->
  ?cache:Kernel.Cache.t ->
  Klut.Network.t ->
  Patterns.t ->
  Signature.table
(** Mode [a]: all nodes, topological order, one matrix pass per node.
    The narrow-LUT cascades are memoized by truth table in [cache]
    (default {!Kernel.Cache.shared}, the process-wide instance); pass
    your own to isolate or to observe hit/miss counts. *)

val simulate_aig : ?domains:int -> Aig.Network.t -> Patterns.t -> Signature.table
(** AIG simulation through 2-input structural matrices. Word-parallel like
    the bitwise engine (an AND's logic matrix selection over packed words
    {e is} the AND of the words), hence the paper's [T_A ~ 1x]. *)

val simulate_specified :
  ?domains:int ->
  Klut.Network.t ->
  Patterns.t ->
  targets:int list ->
  (int * int array) list
(** Mode [s]: signatures of the target nodes only, via circuit cut with
    [limit = max 2 (log2 num_patterns)] (capped at 16). Returns
    association list target node -> signature. *)

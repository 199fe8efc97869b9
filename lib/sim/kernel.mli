(** Compiled simulation kernel plans — the library's one simulator
    (Section III of the paper).

    The paper's simulator holds each LUT's function as a logic matrix
    and produces a node's signature by selecting matrix columns over
    packed pattern words, with no per-pattern Boolean evaluation. Here
    that is two steps: {e compile} a network once into a plan
    ({!compile_aig}, or {!compile_klut} with an instruction [style]),
    then {!execute} the plan on every pattern set. Every caller in the
    library, the CLIs and the benches goes through these two steps;
    {!Circuit_cut.simulate} is Algorithm 1's mode [s] on top of them.

    A {e plan} is the network compiled into a flat instruction arena
    (parallel int arrays, no per-node OCaml blocks): one instruction per
    node, in creation order (topological, so the arena is its own
    levelization). Three instruction shapes:

    - an {b AND kernel} — word AND with complement masks folded in (an
      AND's 2-input structural matrix selection over packed words {e is}
      the AND of the words, hence the paper's [T_A ~ 1x]);
    - a {b compiled STP selection cascade} ({!Stp.Cascade}) — the
      paper's column-half selections, shared per distinct truth table
      through a bounded {!Cache} ([`Stp] style, narrow LUTs);
    - a {b matrix pass} — per-bit fanin gather into a column index of
      the packed truth table. The baseline bit-blast LUT treatment
      ([`Bitblast] style, "extracting individual bits of the LUT and
      simulating them separately") and the [`Stp] wide-LUT fallback are
      the same gather loop, so the library has exactly one audited inner
      loop for it.

    The {e block executor} runs a plan over contiguous pattern blocks
    of up to 512 words (16,384 patterns), instruction-major within each
    block, so each instruction is dispatched once per block and streams
    the block's words of its rows; a cascade runs selection by
    selection over the block. Execution is sharded across domains at
    plan granularity (each domain executes the whole plan over its own
    word slice, so every [domains] value gives bit-identical tables).
    Plans are growable in place — {!extend_aig} appends instructions
    for nodes created since the last compilation, and {!run} accepts
    instruction and word sub-ranges, which is what the sweep engine's
    incremental patching (append nodes / refresh stale trailing words)
    is built from. *)

(** Bounded cascade-compilation cache, shared across plans. *)
module Cache : sig
  type t

  val create : ?max_entries:int -> unit -> t
  (** FIFO-bounded: once [max_entries] (default 4096) distinct truth
      tables are resident, the oldest is evicted. *)

  val hits : t -> int
  (** LUT nodes whose cascade was found already compiled. *)

  val misses : t -> int
  (** Distinct truth tables actually compiled. *)

  val evictions : t -> int

  val length : t -> int
  (** Resident entries, always [<= max_entries]. *)

  val shared : unit -> t
  (** The process-wide cache (mutex-guarded): plan compilations that do
      not pass their own cache share this one, so repeated simulations —
      across passes, and across requests in a daemon — reuse each
      other's cascades. *)
end

type t
(** A compiled plan. Mutable (growable); not shared across domains
    while being extended. *)

val num_instructions : t -> int
(** Nodes compiled so far — instruction index = node id. *)

val compile_aig : ?hint:int -> Aig.Network.t -> t
val extend_aig : t -> Aig.Network.t -> unit
(** Append instructions for nodes [num_instructions t ..
    num_nodes net - 1]. The network must be the plan's own network
    grown append-only. *)

val cascade_max_fanins : int
(** [8]: the widest LUT that [`Stp] compiles into a selection cascade.
    Wider LUTs run the per-bit matrix pass. *)

val compile_klut :
  ?hint:int ->
  ?cache:Cache.t ->
  style:[ `Stp | `Bitblast ] ->
  Klut.Network.t ->
  t
(** [`Stp]: narrow LUTs (k <= {!cascade_max_fanins}) become selection
    cascades, wide LUTs matrix passes. [`Bitblast]: every LUT is a
    matrix pass — the
    baseline per-bit extraction an off-the-shelf simulator does.
    [cache] defaults to {!Cache.shared}. *)

val execute : ?domains:int -> t -> Patterns.t -> Signature.table
(** Allocate a fresh table, run the whole plan over all pattern words
    ([domains] contiguous word shards), mask tails. Bit-identical for
    every [domains] value. Rows hold [max 1 (num_words pats)] words: an
    empty pattern set gives one zero word per node. *)

val run :
  t ->
  Patterns.t ->
  Signature.table ->
  inst_lo:int ->
  inst_hi:int ->
  lo:int ->
  hi:int ->
  unit
(** The raw block executor: instructions [inst_lo, inst_hi) over words
    [lo, hi) into caller-owned rows (each row of length [>= hi]). Reads
    fanin rows in the same word range, writes nothing else, applies no
    tail masking. *)

val run_sharded :
  ?domains:int ->
  t ->
  Patterns.t ->
  Signature.table ->
  inst_lo:int ->
  inst_hi:int ->
  lo:int ->
  hi:int ->
  unit
(** {!run} with the word range split into contiguous per-domain
    sub-ranges. *)

val alloc_table : t -> int -> Signature.table
(** [alloc_table t nw] — one zeroed row of [nw] words per instruction. *)

(** The circuit-cut algorithm (Section III-B) and Algorithm 1's two
    simulation modes.

    Mode [a] simulates every node: compile the network's plan with
    {!Kernel.compile_klut} and {!Kernel.execute} it. Mode [s] ({!simulate})
    simulates only the nodes whose signatures are needed: the network is
    first restructured by {!cut}, which keeps as boundaries the nodes
    whose signatures are requested plus every multi-fanout node, and
    collapses each remaining single-fanout tree region into one LUT whose
    function is the STP composition of the member matrices. Each produced
    cut is a tree with at most [limit] leaves; regions that would exceed
    [limit] are split. The result is a smaller k-LUT network over the
    same PIs in which every requested node is present, and only its cut
    roots are simulated.

    The sweep engine's cut-frontier windows ([Sweep.Cut_window]) do not
    reuse this boundary rule. It answers a different question: it
    partitions a whole {!Klut.Network} into single-root trees, ahead of
    time, and composes {!Tt.Truth_table} values in hashtables. A window
    asks, at query time, whether two roots of the AIG agree over one
    joint cut under both of them — a two-root cut that may cross
    multi-fanout nodes, answered in one machine word with no
    allocation. *)

type result = {
  network : Klut.Network.t;
  node_map : int array;
  (** original node id -> node id in [network]; [-1] for collapsed
      interior nodes. PIs and requested nodes always map. *)
  roots : int list;
  (** original ids of all cut roots, topological order. *)
}

val cut : Klut.Network.t -> limit:int -> targets:int list -> result
(** [limit >= 1]; targets must be valid nodes. PIs in [targets] are
    allowed and simply map through. *)

val limit : num_patterns:int -> int
(** Mode [s]'s cut width:
    [min Kernel.cascade_max_fanins (max 2 (floor (log2 num_patterns)))].
    Ten patterns give the paper's limit 3. The cap keeps every collapsed
    LUT narrow enough for a selection cascade: from 512 patterns up the
    uncapped rule gives wider LUTs, which run the per-bit matrix pass
    and make mode [s] slower than mode [a]. *)

val simulate :
  Klut.Network.t -> Patterns.t -> targets:int list -> (int * int array) list
(** Mode [s]: signatures of the target nodes only. Cuts with
    {!limit}, then executes the cut network's [`Stp] plan. Returns the
    association list target node -> signature, in [targets] order; each
    signature equals the target's mode-[a] row. *)

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
    roots are simulated. *)

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

val simulate :
  Klut.Network.t -> Patterns.t -> targets:int list -> (int * int array) list
(** Mode [s]: signatures of the target nodes only. Cuts with
    [limit = min 16 (max 2 (floor (log2 num_patterns)))] — ten patterns
    give the paper's limit 3 — then executes the cut network's [`Stp]
    plan. Returns the association list target node -> signature, in
    [targets] order; each signature equals the target's mode-[a] row. *)

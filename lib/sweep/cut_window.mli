(** Cut-frontier windows: prove a candidate pair equal (or complementary)
    by exhaustive simulation over a small structural cut under both
    nodes — Algorithm 1's windowed exhaustive simulation, asked at query
    time about a pair instead of ahead of time about a node.

    The cut grows from the frontier [{a, b}]: the highest-numbered AND
    of the frontier is repeatedly replaced by its two fanin nodes (node
    0, the constant, is never a leaf). Expansions run in strictly
    descending node order, so the higher root is the first node
    expanded, and every expanded node is a function of the frontier
    below it. After each expansion a frontier of at most 5 non-constant
    leaves is tested (a table over it fits one 32-bit word): leaf [i]
    gets the [i]-th 32-bit projection word, the expanded ANDs are
    evaluated in ascending id, and the two roots' words are compared.
    The growth gives up after 64 expansions or once the frontier holds
    more than 24 nodes. These are fixed constants. The verdict is
    therefore a pure function of the two cones.

    Equal words prove [a = b] in the network (whatever values the cut
    nodes take, the roots agree); complementary words prove [a = ¬b].
    Anything else proves nothing — the cut nodes may be correlated — so
    the test is sound but one-sided and never splits a pair.

    The scratch state is allocation-free per query: epoch-stamped
    node -> slot arrays plus flat slot arrays, grown by doubling as the
    network grows. It belongs to one sweep; concurrent sweeps need one
    each. *)

type t

val create : unit -> t

val verdict :
  t -> Aig.Network.t -> int -> int -> [ `Equal | `Compl | `Unknown ]
(** [verdict t net a b] for two distinct nodes of [net]. On [`Equal] or
    [`Compl], [t] keeps the deciding cut for {!prove}. *)

val prove :
  t -> Aig.Network.t -> int -> int -> compl:bool -> (unit, string) result
(** [prove t net a b ~compl] replays through a fresh {!Sat.Drup} checker
    the proof that nodes [a] and [b] of [net] satisfy [a = b xor compl],
    case-splitting on the leaves of the cut kept by the last decisive
    {!verdict}. Axioms, read off [net] and keyed by node id: the Tseitin
    clauses of every expanded AND (three each, plus a unit clause for
    node 0 when it occurs) and the miter [(a ∨ b')], [(¬a ∨ ¬b')] with
    [b' = b xor compl]. Lemmas, each RUP-checked: the blocking clause of
    every full leaf assignment, then their resolvents down to the empty
    clause — [2^(k+1) - 1] clauses for [k] leaves. The cut's slot data
    never enters an axiom, so a cut that does not match [net] (or a
    pair other than the verdict's) fails a lemma rather than certifying
    a wrong merge. [Error] if the checker rejects a lemma, e.g. when
    [compl] claims the wrong relation. *)

(** SAT-guided initial simulation patterns (Section IV-A, after [6]).

    Two rounds of constraint-driven pattern generation refine the initial
    random set:

    - round one targets nodes whose signature is all-zeros or all-ones —
      a query either yields a pattern producing the missing value
      (killing a false constant candidate before it costs an equivalence
      query later) or proves the node genuinely constant;
    - round two targets nodes whose signature has very few ones or very
      few zeros, generating patterns that exercise the rare value so
      near-constant signatures stop colliding into one candidate class.

    The cut tier ({!Cut_window.verdict} on [(node, 0)]) answers each
    candidate first and proves most true constants with no solver call.
    The rest are SAT queries on their own solver against the unswept
    network; each model is appended as a plain PI assignment. *)

type outcome = {
  patterns_added : int;
  proven_const : (int * bool) list;
      (** nodes proven constant, by the cut tier or SAT, with their value *)
  queries : int;  (** SAT queries spent *)
}

val generate :
  ?max_queries:int ->
  ?low_ratio:float ->
  ?conflict_limit:int ->
  ?deadline:float ->
  Aig.Network.t ->
  Sim.Patterns.t ->
  outcome
(** Appends patterns to the given set in place. [low_ratio] (default
    0.02) is round two's rare-value threshold; [max_queries] (default
    256) bounds the candidates examined, cut-proven ones included;
    [deadline] (absolute wall clock) stops examining — and interrupts
    the in-flight query — once it passes. *)

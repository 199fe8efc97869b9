(** Output-literal views of AIG signature tables.

    Simulation itself is {!Kernel}'s job: compile a plan once, execute
    it. This module keeps only [po_signature], under the name the
    repository benchmark ([perfbench/harness.ml]) reads it by. *)

val po_signature :
  Signature.table -> num_patterns:int -> lit:Aig.Lit.t -> int array
(** The signature of an output literal: the node's row, complemented
    for a complemented literal. Always a fresh copy. *)

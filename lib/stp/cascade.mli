(** Compiled STP selection cascades.

    The STP of a logic matrix with a Boolean factor is a column-half
    selection ({!Logic_matrix.stp_bvec}); applied word-parallel over
    packed simulation patterns it reads [out = (x & M_hi) | (~x & M_lo)].
    Compiling the cascade of selections once per truth table — sharing
    repeated sub-matrices through cofactor memoization — turns node
    simulation into a handful of word operations per 32 patterns.

    This is the instruction form the simulation kernel plans execute
    ({!Sim.Kernel}): slot 0 holds constant 0, slot 1 constant 1, and
    instruction [i] computes slot [i + 2] by selecting between two
    earlier slots under fanin [sel_var.(i)]'s pattern word. *)

type t = {
  sel_var : int array;  (** fanin position whose word selects *)
  sel_hi : int array;  (** slot of the var=1 cofactor matrix *)
  sel_lo : int array;
  root : int;
      (** slot holding the node's column selection: 0 or 1 for a
          constant function, otherwise the last instruction's slot *)
}

val compile : Tt.Truth_table.t -> t
(** Compile a truth table's cascade of column-half selections. Roots 0
    and 1 denote the constant functions (no instructions needed). *)

val length : t -> int
(** Number of selection instructions. *)

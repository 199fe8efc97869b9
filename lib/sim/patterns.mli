(** Simulation pattern sets.

    A pattern set assigns a Boolean sequence to every PI; pattern [i] is
    the assignment formed by bit [i] of each PI's sequence (the paper's
    Section III-C layout). Bits are packed 32 per word so simulators work
    word-parallel. Sets are mutable and growable: counter-example
    refinement appends patterns during sweeping. *)

type t

val create : num_pis:int -> t
(** Empty set. *)

val random : seed:int64 -> num_pis:int -> num_patterns:int -> t

val exhaustive : num_pis:int -> t
(** All [2^num_pis] assignments; [num_pis <= 20]. Pattern [i] assigns bit
    [b] of [i] to PI [b]. *)

val of_rows : string list -> t
(** One string of ['0']/['1'] per PI, as printed in the paper's example:
    row [p] character [i] is the value of that PI in pattern [i]. All rows
    must have equal length. *)

val num_pis : t -> int
val num_patterns : t -> int
val num_words : t -> int
(** Words per PI; the last word's surplus bits are zero. *)

val get : t -> pi:int -> pattern:int -> bool
val word : t -> pi:int -> int -> int
(** [word t ~pi w] is the [w]-th 32-bit block of that PI's sequence. *)

val add_pattern : t -> bool array -> unit
(** Appends one assignment (length [num_pis]). *)

val pattern : t -> int -> bool array
(** The full assignment of pattern [i]. *)

val copy : t -> t

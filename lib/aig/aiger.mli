(** ASCII AIGER ([aag]) reading and writing.

    Combinational subset: the latch section must be empty when reading and
    is never produced when writing. Literal numbering follows the AIGER
    convention, which coincides with {!Lit.t} once node ids are assigned
    in file order.

    Accepted syntax. Lines end at ['\n']. A line that is blank (only
    spaces, tabs, ['\r'] or ['\012']) or starts with ['c'] is skipped
    wherever it appears, which also skips the comment section. The first
    other line is the header: after trimming, [aag M I L O A], its fields
    separated by single spaces, each at most [2^30]. The next
    [I + L + O + A] lines are the body, in AIGER order: inputs, latches
    ([q next]), outputs, ANDs ([lhs rhs0 rhs1]); what follows them (the
    symbol table) is ignored. Body tokens are separated by spaces only,
    so a tab or a ['\r'] inside a body line is an error. Every integer is
    plain unsigned decimal, [[0-9]+] no larger than [max_int]: signs,
    [0x]/[0o]/[0b]/[0u] prefixes and underscores are rejected. A missing
    final newline is fine. The reader scans the text once and allocates
    little beyond the network it returns. *)

exception Parse_error of string
(** ["line N: ..."], with [N] the 1-based physical line at fault; a
    header promising more body lines than the text holds is reported
    as ["truncated file"], without a line. *)

val read : string -> Network.t
(** Parses an [aag] document from a string. Raises {!Parse_error} on
    malformed input, latches, or forward references; nothing else, on
    any input. *)

val read_file : string -> Network.t

val read_sequential : string -> Network.t * int
(** Like {!read} but accepts latches by cutting the sequential loop the
    way combinational sweeping tools do: each latch's output becomes an
    extra PI (after the real PIs) and each latch's next-state input an
    extra PO (after the real POs). Returns the network and the latch
    count. This is how the HWMCC'15 model-checking circuits are consumed
    by a combinational SAT sweeper. *)

val read_sequential_file : string -> Network.t * int

val write : Network.t -> string
(** Serializes; nodes keep their ids (the network is already dense and
    topologically ordered). One line per number group, single spaces,
    a final newline; the digits go straight into one buffer. *)

val write_file : string -> Network.t -> unit

val add_int : Buffer.t -> int -> unit
(** [add_int buf n] appends the decimal digits of [n >= 0], the number
    format of {!write} (also that of [Sweep.Cone_cert]'s keys). *)

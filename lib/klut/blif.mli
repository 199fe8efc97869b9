(** BLIF reading and writing for k-LUT networks.

    The Berkeley Logic Interchange Format is the lingua franca for LUT
    netlists. The writer emits one [.names] block per LUT (cover rows in
    on-set form); the reader accepts the combinational single-model
    subset: [.model]/[.inputs]/[.outputs]/[.names]/[.end], with cover
    rows over inputs in {0,1,-} and output value 1 or 0 (off-set covers
    are complemented into on-set functions). Signals must be defined
    before use; latches and subcircuits are rejected.

    Accepted syntax. Lines end at ['\n']; ['#'] starts a comment that
    runs to the end of the line. Each line is trimmed of spaces, tabs,
    ['\r'] and ['\012'], and a line ending in a backslash continues on
    the next. Tokens are runs of anything but spaces and tabs, so a name
    may hold any other byte. A [.names] block may have at most 20
    inputs; its rows are a mask over [0], [1] and [-] with exactly one
    character per input, then the output value, exactly [1] or [0], and
    all rows of a block share one value. The format has no numbers, so
    no integer syntax applies. The reader scans the text once and sets
    each block's table bits per cover row. *)

exception Parse_error of string
(** ["line N: ..."], with [N] the first physical line of the logical
    line at fault; a defective [.names] block (an undefined fanin, a
    malformed or mixed cover) is reported at its [.names] line when the
    block closes. *)

val write : Network.t -> string
(** Signals are named [n<i>] for internal nodes, [pi<i>] / [po<i>] at
    the boundary. *)

val write_file : string -> Network.t -> unit

val read : string -> Network.t
val read_file : string -> Network.t

(** Minimal JSON — just enough for machine-readable run reports.

    The container has no JSON library, so this is a small self-contained
    value type with a printer and a parser that round-trip each other:
    [of_string (to_string v) = Ok v] for any finite value. Reports stay
    greppable and any external tool can consume them.

    Deviations from full RFC 8259, chosen for report use: non-finite
    floats print as [null]; parsed [\uXXXX] escapes are decoded to UTF-8
    without surrogate-pair combining.

    Strings are bytes. The printer escapes ['"'], ['\\'] and the bytes
    below [0x20] ([\n], [\r], [\t], [\b], [\f], else [\u00XX]) and
    copies every other byte, including [0x7F] and bytes of [0x80] and
    up, as it is. The parser takes the escapes above plus [\/] and any
    [\uXXXX], and any other byte raw. Both copy the runs between escapes
    whole, so an AIGER text inside a frame costs one blit per line. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Compact by default; [~pretty:true] indents two spaces per level.
    Floats print with the shortest digit string that parses back to the
    same IEEE value, always containing ['.'] or ['e'] so they stay
    floats through a round-trip. *)

val to_file : string -> t -> unit
(** Pretty-prints to a file with a trailing newline. *)

exception Parse_error of int * string
(** Character offset plus message. The only exception the parser raises,
    whatever the input: hostile bytes on the cache/wire path become a
    typed, positioned error, never [Failure] or [Stack_overflow]
    (nesting is capped). *)

val parse : string -> t
(** Parses one JSON value (surrounding whitespace allowed); raises
    [Parse_error]. Entry point for wire/cache payloads where the caller
    maps the exception to a protocol-level error response. *)

val of_string : string -> (t, string) result
(** [parse] with the error rendered as a message carrying the character
    offset. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on anything else or a missing key. *)

val to_float : t -> float option
(** Numeric access: [Int] and [Float] both convert. *)

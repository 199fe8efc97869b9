(** Spans: the one mechanism that times what a report times, and the
    opt-in trace stream.

    A span is a named stretch of wall-clock time ({!Clock}) on a
    recorder; one opened while another is open is enclosed by it. A
    span bills its {e self time}, its duration minus that of the spans
    it directly encloses, to its name, so every instant of an outermost
    span is billed to exactly one name: the totals partition the
    recorded time and sum to {!total}, up to float rounding. A recorder
    belongs to one run (a sweep, a pass, a request) on one domain. *)

type t

val create : string list -> t
(** A recorder with no span open, reporting the given names first. *)

val with_ : t -> string -> (unit -> 'a) -> 'a
(** [with_ t name f] runs [f ()] as a span called [name], which ends
    when [f] returns or raises (the exception passes through). *)

val totals : t -> (string * float) list
(** Self seconds per name over the ended spans: the names given to
    {!create} in order, then the others in the order first opened. *)

val total : t -> float
(** Summed duration of the ended outermost spans. *)

(** {2 Trace stream}

    Off unless [STP_SWEEP_TRACE=1] is set or a CLI's [--trace] calls
    {!enable_trace}; usable from any domain. Each line goes to stderr in
    one write, as [[trace +SECONDS] message] (seconds since process
    start). A line that cannot be written is dropped: tracing never
    raises. *)

val enable_trace : unit -> unit
val trace : ('a, unit, string, unit) format4 -> 'a

val progress : t -> ('a, unit, string, unit) format4 -> 'a
(** A trace line followed by [t]'s {!totals} so far, as [name=SECONDS]. *)

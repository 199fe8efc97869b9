(** Monotonic wall-clock timing.

    Every timer in the repo reads this clock; reports time through
    {!Span}. Not [Sys.time]: process CPU time sums over all running
    domains, so a perfectly-scaling 4-domain run reports ~4x the
    sequential number — wall clock is the only meaningful metric for
    parallel engines (and the one the paper's tables report).

    Timestamps come from [Unix.gettimeofday], clamped to be
    non-decreasing across all domains, so spans are never negative even
    if the system clock steps backwards mid-measurement. *)

val now : unit -> float
(** Wall-clock seconds since the Unix epoch, monotonically
    non-decreasing within the process. Safe to call from any domain. *)

val span : (unit -> 'a) -> float * 'a
(** Wall seconds spent in the thunk, and its result. *)

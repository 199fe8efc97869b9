(** Opt-in progress stream for long runs.

    Disabled by default; enabled by the [STP_SWEEP_TRACE=1] environment
    variable or a CLI [--trace] flag calling {!enable}. Lines go to
    stderr as [[trace +SECONDS] message] with seconds relative to the
    first emission, so a stalled sweep shows where it stalled without
    perturbing stdout reports. A line that cannot be written is
    dropped: tracing never raises into the traced operation. *)

val enabled : unit -> bool

val enable : unit -> unit

val emitf : ('a, unit, string, unit) format4 -> 'a
(** Formats and emits one line when enabled; when disabled the
    formatting still evaluates its arguments, so keep call sites off the
    per-node hot path (guard batches with {!enabled} if needed). *)

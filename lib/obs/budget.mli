(** Composable resource budgets: a wall-clock deadline ({!Clock} scale)
    plus optional conflict and propagation caps, with a cheap
    stride-counted check and a typed exhaustion reason.

    This is the repo's rendition of MiniSat's [set_conf_budget] /
    [set_prop_budget] / [within_budget] machinery, extended with a
    deadline: anytime algorithms (the sweeping engine, the solver's
    search loop) call {!check} from their hot loop; the budget reads the
    clock only every [stride] calls, so the steady-state cost is one
    integer decrement. Once a budget reports exhaustion it stays
    exhausted — the owner is expected to degrade gracefully, never to
    resume.

    A budget never interrupts anything by itself: exhaustion is a value
    the caller acts on, which is what makes "finish the in-flight merge,
    then stop" degradation possible.

    Thread safety: one budget may be shared across OCaml domains (the
    sweep engine's parallel SAT dispatch hands the pipeline budget to
    every solver worker). The sticky exhaustion flag and the stride
    countdown are atomics — any domain's {!check} can trip exhaustion
    and every other domain observes it on its next check. Countdown
    races are benign: a lost decrement only shifts which call pays the
    next clock read. *)

type reason =
  | Deadline  (** the wall-clock deadline passed *)
  | Conflicts  (** the cumulative conflict cap was reached *)
  | Propagations  (** the cumulative propagation cap was reached *)

type t

val unlimited : unit -> t
(** A budget that never exhausts. *)

val create :
  ?deadline:float ->
  ?timeout:float ->
  ?conflicts:int ->
  ?propagations:int ->
  ?stride:int ->
  unit ->
  t
(** [deadline] is an absolute {!Clock.now} timestamp; [timeout] is
    seconds from now (ignored when [deadline] is given). [conflicts] /
    [propagations] cap the cumulative counter values passed to {!check}.
    [stride] (default 64) is how many {!check} calls go between
    wall-clock reads. *)

val is_limited : t -> bool
(** Whether any resource is capped. *)

val deadline : t -> float option
(** The absolute deadline, if one is set — the value to hand to
    [Sat.Solver.solve ?deadline] so a single long query also respects
    the global budget. *)

val remaining_s : t -> float option
(** Seconds left until the deadline ([None] when unlimited); can be
    negative once expired. *)

val check : ?conflicts:int -> ?propagations:int -> t -> reason option
(** The hot-loop check. Counter caps are compared on every call; the
    clock is read only every [stride] calls. Returns the exhaustion
    reason once any resource runs out, and keeps returning it (sticky). *)

val check_now : ?conflicts:int -> ?propagations:int -> t -> reason option
(** Like {!check} but always reads the clock — for phase boundaries
    where a strided check could overshoot. *)

val charge : ?conflicts:int -> ?propagations:int -> t -> reason option
(** [charge ~conflicts ~propagations t] adds {e deltas} (work done since
    the caller's previous charge) to the budget's internal consumption
    meters and compares the accumulated totals against the caps —
    unlike {!check}, whose counter arguments are caller-cumulative
    values. Charging lets one budget be shared by parties that each
    count from zero: the pipeline's successive sweep passes, or the
    dispatch pool's per-domain solvers. Sticky like {!check}; a trip
    here is observed by every later {!check} on any domain. *)

val consumed : t -> int * int
(** [(conflicts, propagations)] accumulated through {!charge} — what an
    {!Pool} lease deducts from the shared pool at release time. *)

val exhausted : t -> reason option
(** The sticky exhaustion state, without performing a new check. *)

val reason_to_string : reason -> string
(** ["deadline" | "conflicts" | "propagations"] — the spelling used in
    JSON run reports. *)

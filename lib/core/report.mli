(** Small helpers shared by the table harnesses and benches: wall-clock
    timing, geometric means, and fixed-width table rendering. *)

val time_repeat : ?min_time:float -> (unit -> unit) -> float
(** Runs the thunk enough times to accumulate [min_time] wall-clock
    seconds (default 0.2) and returns the per-run mean — stabilizes
    short measurements. *)

val geomean : float list -> float
(** Geometric mean; zero entries are clamped to a small epsilon so a
    single zero row cannot zero the whole summary. *)

val render_table : header:string list -> string list list -> string
(** Pads columns, separates with two spaces, underlines the header. *)

val fmt_time : float -> string
(** Seconds with three decimals. *)

val fmt_ratio : float -> string

val cli_guard : (unit -> 'a) -> 'a
(** Wraps a CLI body. Malformed or unreadable inputs
    ([Aig.Aiger.Parse_error], [Klut.Blif.Parse_error],
    [Sat.Dimacs.Parse_error], [Script.Parse_error],
    [Obs.Json.Parse_error], [Sys_error]) and [Unix.Unix_error] (socket
    and file paths — a refused connection, a missing socket, an address
    in use — rendered with a human hint) become a one-line stderr
    message and exit code 2; [Sweep.Engine.Verification_failed] becomes
    one and exit code 3. Anything else propagates (Cmdliner reports it
    as exit 125). *)

val load_network :
  ?circuit:string -> ?file:string -> unit -> string * Aig.Network.t
(** The shared [--circuit NAME | --aig FILE] loader: a named generated
    benchmark (HWMCC family first, then EPFL) or an ASCII AIGER file.
    Returns the display name (basename for files) and the network.
    Exactly one source must be given; violations and unknown benchmark
    names print to stderr and exit 2 — combine with {!cli_guard} so
    unreadable files share the same exit surface. *)

val run_meta : tool:string -> (string * Obs.Json.t) list
(** The header fields every [--json] run report starts with:
    [schema_version], [tool], [generated_at_unix_s], [argv]. Schema
    documented in EXPERIMENTS.md. *)

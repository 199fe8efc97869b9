(** The pass manager: named, first-class network transforms composed
    into pipelines over one shared context.

    A {e pass} is [ctx -> network -> network * report]: it transforms an
    AIG and returns a pass-specific JSON record. The {e context} carries
    everything a production flow shares across stages — the
    simulation-domain count, one {!Obs.Budget} for the whole
    pipeline, the verify/certify policy, and a snapshot of the pipeline
    input for equivalence checkpoints. The {e registry}
    provides the built-in passes ([sweep], [rewrite], [balance],
    [cleanup], [verify], [ps]); {!Script} turns an ABC-style command
    string into a pipeline of them.

    Budget semantics are pipeline-wide (PR 3's degradation contract,
    lifted from the sweep call to the whole script): the runner checks
    the shared budget before every transform pass and the sweep engine
    honors the same absolute deadline internally; on exhaustion the
    remaining transform passes are skipped and reported, while [verify]
    and [ps] still run. Certification ([ctx.certify]) likewise applies
    to every sweep {e and} every verify CEC in the script. *)

type ctx = {
  sim_domains : int;
  sat_domains : int;
      (** default solver-pool size for every sweep pass (default [1],
          at least [1]); a per-pass [--sat-domains] flag overrides it *)
  budget : Obs.Budget.t;  (** one budget for the whole pipeline *)
  verify : bool;  (** self-verify policy for sweeps ({!Sweep.Selfcheck}) *)
  certify : bool;  (** DRUP-certified solver answers, pipeline-wide *)
  cache : Sweep.Engine.cache_ops option;
      (** cross-run equivalence cache for every sweep pass — the daemon
          hands each request the same store, so proven merges flow
          between requests; see {!Sweep.Engine.cache_ops} *)
  cache_paranoid : bool;
      (** replay stored certificates before serving cache hits *)
  input : Aig.Network.t;  (** snapshot of the pipeline input *)
  mutable checkpoint : Aig.Network.t;
      (** last network a [verify] pass proved equivalent; starts as
          [input] *)
  mutable verdicts : string list;
      (** CEC verdicts recorded by [verify] passes, newest first *)
  echo : string -> unit;  (** human-readable progress sink *)
}
(** Every sweep pass runs its engine preset ([-e stp|fraig], see
    {!Sweep.Engine.config}) with the preset's own seed, its flags
    ([--conflict-limit], [--retry-schedule], [--sat-domains]) and these
    pipeline-wide fields filled in by functional update. *)

val create_ctx :
  ?sim_domains:int ->
  ?sat_domains:int ->
  ?budget:Obs.Budget.t ->
  ?verify:bool ->
  ?certify:bool ->
  ?cache:Sweep.Engine.cache_ops ->
  ?cache_paranoid:bool ->
  ?echo:(string -> unit) ->
  Aig.Network.t ->
  ctx
(** [budget] is the shared pipeline budget — a CLI builds
    [Obs.Budget.create ?timeout ()], the daemon hands over an
    {!Obs.Pool} lease's; omitted, the budget is unlimited. [echo]
    defaults to stdout — pass [ignore] for quiet runs (tests). *)

type t = {
  name : string;
  args : (string * string) list;
      (** canonical flag key -> rendered value, for the report *)
  transform : bool;
      (** transform passes are skipped once the budget is exhausted;
          reporting/verification passes still run *)
  run : ctx -> Aig.Network.t -> Aig.Network.t * Obs.Json.t;
}

(** {1 Registry} *)

type arity = Unit | Value

type flag = {
  keys : string list;
      (** aliases, long form first — it names the canonical key, e.g.
          [["--engine"; "-e"]] canonicalizes to ["engine"] *)
  arity : arity;
  flag_doc : string;
}

type spec = {
  pass : string;
  doc : string;
  flags : flag list;
  transform : bool;
  make :
    (string * string) list -> ctx -> Aig.Network.t -> Aig.Network.t * Obs.Json.t;
      (** builds the pass body from canonicalized flag/value pairs; may
          raise {!Bad_arg} on a malformed value — {!Script.compile}
          converts it into a positioned parse error *)
}

exception Bad_arg of string * string
(** [(canonical flag key, message)] — raised by a spec's [make] when a
    flag value does not parse. *)

val canonical_key : flag -> string
(** First alias with leading dashes stripped — the key under which the
    flag appears in [t.args] and is passed to [make]. *)

val register : spec -> unit
val find : string -> spec option
val names : unit -> string list

(** {1 Running pipelines} *)

type record = {
  r_name : string;
  r_args : (string * string) list;
  r_skipped : string option;  (** budget reason, when skipped *)
  r_ands_before : int;
  r_depth_before : int;
  r_ands_after : int;
  r_depth_after : int;
  r_wall_s : float;
  r_detail : Obs.Json.t;  (** pass-specific stats; [Null] when skipped *)
}

val record_json : record -> Obs.Json.t
(** One per-pass report object: [pass], [args], [skipped],
    [ands_before]/[depth_before], [ands_after]/[depth_after], [wall_s],
    [stats]. Schema documented in EXPERIMENTS.md. *)

val run_pipeline : ctx -> t list -> Aig.Network.t -> Aig.Network.t * record list
(** Threads one network through the passes, checking the shared budget
    between passes, timing each pass and echoing a per-pass stage line.
    Returns the final network and one record per pass (skipped passes
    included). *)

val skipped_count : record list -> int
val last_verdict : ctx -> string option
(** Most recent [verify] verdict, if any. *)

val any_different : ctx -> bool
(** Whether any [verify] pass returned [Different] — the CLI exit-1
    condition. *)

val summary_json : ctx -> record list -> (string * Obs.Json.t) list
(** Aggregate report fields: [passes] (records), [skipped_passes],
    [cec] (last verify verdict or null). *)

(** Fork-join parallelism over OCaml 5 domains.

    The simulation kernel shards its packed pattern words into
    contiguous ranges and runs each range in its own domain, one
    one-shot fork-join ({!for_ranges}) per execution — the sweep
    engine's resimulation after every counter-example batch included.
    The daemon starts its worker domains with {!run}. Only the sweep
    engine's SAT dispatch fans out repeatedly, once per wave over tasks
    of uneven cost, so it keeps a persistent worker {!Pool} and
    {!Pool.drain}s a work queue through it.

    Workers communicate only through disjoint slices of pre-allocated
    arrays, so no locking is needed in the parallel sections themselves. *)

val split : chunks:int -> int -> (int * int) array
(** [split ~chunks n] partitions [0, n) into at most [chunks] contiguous
    half-open [(lo, hi)] ranges of near-equal size. Never returns an
    empty range: fewer than [chunks] ranges come back when [n < chunks],
    and [n = 0] yields [[||]]. *)

val run : domains:int -> (int -> unit) -> unit
(** [run ~domains f] evaluates [f 0 .. f (domains - 1)] concurrently,
    index 0 in the calling domain, and joins. [domains <= 1] degrades to
    a plain call of [f 0]. If any [f i] raises, the first exception is
    re-raised after all domains have been joined. *)

val for_ranges : domains:int -> int -> (lo:int -> hi:int -> unit) -> unit
(** [for_ranges ~domains n f]: [split] [0, n) across [domains] and run
    [f ~lo ~hi] on each range in parallel. [f 0 n] directly when a single
    range results. *)

(** A persistent pool of worker domains, for repeated fan-outs without
    paying a spawn per call. Not reentrant: do not call {!Pool.drain}
    from inside a task. *)
module Pool : sig
  type t

  val create : domains:int -> t
  (** [create ~domains] spawns [domains - 1] workers; the creating domain
      is the pool's member 0. [domains] is clamped to at least 1. If a
      spawn fails (for instance at the runtime's domain limit), the
      workers already spawned are stopped and joined and the exception
      is re-raised. *)

  val domains : t -> int

  val drain : t -> int -> (domain:int -> int -> unit) -> unit
  (** [drain t n f] runs [f ~domain i] for every [i] in [0, n), the pool
      members claiming task indices from a shared atomic counter in
      ascending order — a work queue for tasks of uneven cost (the sweep
      engine's SAT dispatch). [domain] is the pool-member index running
      the task, for per-domain scratch state (each solver belongs to one
      member). Tasks must not touch shared mutable state except through
      their own [i]-indexed slots. Single-member pools degrade to a
      plain loop. *)

  val shutdown : t -> unit
  (** Joins the workers. The pool must not be used afterwards;
      [shutdown] twice is harmless. *)
end

(** The sweep service loop: accept connections on a Unix-domain socket,
    run each framed request through the pass pipeline, stream back
    schema-2 reports.

    Concurrency is [domains] worker domains ({!Sutil.Par.run}, worker 0
    on the calling domain) plus an acceptor thread on the calling
    domain, which is blocked in [select] nearly always (a domain of its
    own, idle beside the workers, slowed them). The acceptor owns the
    listener and the admission decision: an accepted connection either
    enters the bounded queue (at most [queue_depth] waiting) or —
    beyond the high-water mark — is answered a typed
    {!Proto.R_overloaded} with a [retry_after_s] hint and closed. That
    takes microseconds of work, but while worker 0 computes, the
    acceptor first waits for the calling domain, up to one systhread
    tick (~50 ms). Workers pull queued connections and serve each to
    completion, so up to [domains] requests run truly in parallel and
    overload degrades to fast typed shedding instead of unbounded
    queueing.

    Per-request isolation is the core contract: a hostile frame, an
    unparsable script or AIGER payload, a failed verification, or any
    other exception inside one request produces a typed
    {!Proto.R_error} response on that connection — the worker, the
    other connections and the daemon itself live on. The only
    process-fatal errors are the ones before serving starts (socket
    bind failures), which the CLI maps to exit 2. SIGPIPE is ignored
    for the process inside {!run}: a peer that vanishes mid-response
    surfaces as EPIPE on the write, aborts that connection, and is
    counted in [write_aborts].

    Hostile or stalled peers are bounded in time as well as space:
    [io_timeout] arms socket-level read/write deadlines (a peer
    stalling mid-frame or not draining its response trips EAGAIN and
    the connection is aborted), [idle_timeout] closes connections that
    hold a worker without sending the next request. Both count into
    [timeouts].

    With [pool] armed, every run request executes under an
    {!Obs.Pool} lease: its budget is min(its own cap, a fair share of
    the daemon's remaining allowance), the engine charges SAT work
    back to the lease, and unspent allowance returns to the pool on
    completion. Pool exhaustion degrades requests to proven partial
    results (transform passes skipped, every applied merge proven) —
    never an error, never an unproven merge.

    A [{"op": "health"}] frame is answered with {!Proto.R_health}
    carrying queue depth, tallies, pool and cache statistics (schema in
    EXPERIMENTS.md) without touching the sweep pipeline.

    Shutdown is cooperative: setting [stop] (the daemon's signal
    handlers do) makes the acceptor stop admitting, every worker finish
    its in-flight request and close at the next frame boundary; still-
    queued connections are shed with {!Proto.R_overloaded}, the socket
    is removed and {!run} returns its tallies — a drained daemon exits
    0.

    Fault sites: [svc.drop_conn] severs a connection after the request
    ran but before the response is written (the client sees EOF
    mid-conversation, never a half frame); [svc.slow_client] forces
    the idle-abort path on a connection, as if the peer went silent. *)

type config = {
  socket_path : string;
  domains : int;
      (** serving worker domains, the calling one included; clamped to
          at least 1. The acceptor is a thread of the calling domain,
          so the daemon runs exactly [domains] domains. *)
  queue_depth : int;
      (** accepted connections waiting for a worker before admission
          control sheds with {!Proto.R_overloaded} *)
  idle_timeout : float option;
      (** seconds a connection may sit between frames before the server
          hangs up (counted in [timeouts]) *)
  io_timeout : float option;
      (** socket-level read/write deadline, seconds: a peer stalling
          mid-frame or not draining its response aborts the connection
          (counted in [timeouts]) *)
  retry_after_s : float;
      (** backoff hint carried by every {!Proto.R_overloaded} *)
  pool : Obs.Pool.t option;
      (** daemon-wide budget pool; every run request executes under a
          {!Obs.Pool.lease} of it *)
  cache : Cache.t option;
      (** shared equivalence cache handed to every request's pipeline *)
  paranoid : bool;  (** replay stored certificates before serving hits *)
  request_timeout : float option;
      (** server-side per-request budget cap, seconds; a request's own
          [timeout_s] can only shrink it *)
  global_timeout : float option;
      (** lifetime cap for the whole daemon, seconds; on expiry the
          server stops as if signalled *)
  echo : string -> unit;  (** one progress line per request served *)
}

type outcome = {
  served : int;  (** requests answered [R_ok] *)
  errors : int;  (** requests answered [R_error] *)
  dropped : int;  (** connections severed by [svc.drop_conn] *)
  shed : int;  (** connections answered [R_overloaded] (admission or drain) *)
  timeouts : int;
      (** connections aborted on idle or i/o deadline (including
          [svc.slow_client] firings) *)
  write_aborts : int;  (** responses aborted by EPIPE/ECONNRESET *)
}

val run : ?stop:bool Atomic.t -> config -> outcome
(** Binds, serves until [stop] is set (or [global_timeout] expires),
    drains, unlinks the socket, returns the tallies. The socket is bound
    under a private name in the same directory and renamed onto
    [socket_path] once it listens, so the path never exists without a
    listener behind it (and replaces a stale file atomically). The
    private name is [.PID.N] in hex — at most 9 bytes for a process's
    first 16 servers — and both it and [socket_path] must fit Linux's
    [sun_path] ({!max_socket_path} bytes): a socket whose directory plus
    [/] and 9 bytes does not fit fails up front with
    [ENAMETOOLONG] before anything is created, even if [socket_path]
    itself would. Raises [Unix.Unix_error] only for pre-serving failures
    (path length/bind/listen/rename). *)

val max_socket_path : int
(** 107: the longest Unix socket path Linux binds. *)

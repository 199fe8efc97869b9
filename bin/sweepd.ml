(* sweepd: the sweep service daemon.

   Listens on a Unix-domain socket for framed pipeline requests
   (bin/sweep_cli.exe --connect is the matching client), runs each
   through Pass.run_pipeline on a pool of worker domains, and answers
   with the same schema-2 report the CLIs write.

   Overload safety (see DESIGN.md "Overload & eviction"): admission
   control bounds the accept queue (--queue-depth) and sheds beyond it
   with typed R_overloaded answers carrying a --retry-after hint;
   --idle-timeout / --io-timeout bound how long any one peer can hold
   a worker; --wall-pool / --conflict-pool / --prop-pool arm a
   daemon-wide budget pool that leases each request a fair share of
   what is actually left — pool exhaustion degrades requests to proven
   partial results, never errors. An optional on-disk cache
   (--cache DIR) carries proven equivalences across requests and
   restarts, bounded by --cache-max-bytes / --cache-max-entries with
   crash-safe LRU eviction; --paranoid replays every stored DRUP
   certificate before a hit is served.

   Start-up recovers from a predecessor's crash: a socket file with no
   listener behind it is unlinked and rebound; a live listener makes
   this start fail fast (exit 2) instead of stealing the socket.

   SIGTERM/SIGINT drain: in-flight requests finish, queued connections
   are shed with R_overloaded, the socket is unlinked and the process
   exits 0. *)

open Stp_sweep

let run socket domains queue_depth idle_timeout io_timeout retry_after
    wall_pool conflict_pool prop_pool cache_dir cache_max_bytes
    cache_max_entries paranoid request_timeout global_timeout trace () =
  Report.cli_guard @@ fun () ->
  if trace then Obs.Span.enable_trace ();
  (* Stale-socket recovery: probe before binding. A live daemon on the
     same path is a configuration error — stealing its socket would
     orphan its clients — so that start refuses. A dead one's leftover
     is unlinked and the path reused. *)
  (match Svc.Client.probe socket with
  | `Live ->
    Printf.eprintf
      "sweepd: another daemon is already listening on %s; refusing to start\n"
      socket;
    exit 2
  | `Stale ->
    Printf.printf
      "sweepd: removing stale socket %s (no listener behind it)\n%!" socket;
    (try Unix.unlink socket with Unix.Unix_error _ -> ())
  | `Absent -> ());
  let stop = Atomic.make false in
  let quit _ = Atomic.set stop true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
  (* A peer that hangs up mid-response must not kill the daemon.
     Server.run re-asserts this; doing it before the first bind closes
     the window. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let echo s = Printf.printf "sweepd: %s\n%!" s in
  let cache =
    Option.map
      (fun dir ->
        Svc.Cache.open_ ?max_bytes:cache_max_bytes
          ?max_entries:cache_max_entries dir)
      cache_dir
  in
  (match cache with
  | Some c ->
    echo
      (Printf.sprintf "cache: %s (%d entries, %d bytes resident)"
         (Svc.Cache.dir c) (Svc.Cache.entries c) (Svc.Cache.bytes c))
  | None -> ());
  let pool =
    if wall_pool = None && conflict_pool = None && prop_pool = None then None
    else
      Some
        (Obs.Pool.create ?wall_s:wall_pool ?conflicts:conflict_pool
           ?propagations:prop_pool ())
  in
  let outcome =
    Svc.Server.run ~stop
      {
        Svc.Server.socket_path = socket;
        domains;
        queue_depth;
        idle_timeout;
        io_timeout;
        retry_after_s = retry_after;
        pool;
        cache;
        paranoid;
        request_timeout;
        global_timeout;
        echo;
      }
  in
  (match cache with
  | Some c ->
    let t = Svc.Cache.counters c in
    echo
      (Printf.sprintf
         "cache: %d hits, %d misses, %d stores, %d quarantined, %d evicted"
         t.Svc.Cache.c_hits t.c_misses t.c_stores t.c_quarantined t.c_evictions)
  | None -> ());
  (match pool with
  | Some p ->
    let s = Obs.Pool.stats p in
    echo
      (Printf.sprintf
         "pool: %d leases (%d starved), %.3fs wall / %d conflicts consumed"
         s.Obs.Pool.s_leases s.s_starved s.s_wall_consumed s.s_conflicts_consumed)
  | None -> ());
  echo
    (Printf.sprintf
       "drained: %d served, %d errors, %d dropped, %d shed, %d timeouts, %d \
        write aborts"
       outcome.Svc.Server.served outcome.errors outcome.dropped outcome.shed
       outcome.timeouts outcome.write_aborts)

open Cmdliner

let socket =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket to listen on (created, unlinked on exit). It \
           is bound first under a private name of up to 9 bytes in the same \
           directory, so the directory plus 10 bytes must fit in 107 \
           bytes, as must $(docv) itself.")

let domains =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:"Worker domains; up to $(docv) requests run in parallel.")

let queue_depth =
  Arg.(
    value & opt int 16
    & info [ "queue-depth" ] ~docv:"N"
        ~doc:
          "Accepted connections waiting for a worker before admission \
           control sheds new ones with a typed overloaded answer.")

let idle_timeout =
  Arg.(
    value
    & opt (some float) None
    & info [ "idle-timeout" ] ~docv:"SEC"
        ~doc:
          "Hang up on connections idle between requests for $(docv) \
           seconds; unset = patient.")

let io_timeout =
  Arg.(
    value
    & opt (some float) None
    & info [ "io-timeout" ] ~docv:"SEC"
        ~doc:
          "Socket read/write deadline: a peer stalling mid-frame or not \
           draining its response is aborted after $(docv) seconds.")

let retry_after =
  Arg.(
    value & opt float 0.2
    & info [ "retry-after" ] ~docv:"SEC"
        ~doc:"Backoff hint carried by every overloaded answer.")

let wall_pool =
  Arg.(
    value
    & opt (some float) None
    & info [ "wall-pool" ] ~docv:"SEC"
        ~doc:
          "Daemon-wide wall-clock pool: concurrent requests lease fair \
           shares of what remains; an exhausted pool degrades requests to \
           proven partial results.")

let conflict_pool =
  Arg.(
    value
    & opt (some int) None
    & info [ "conflict-pool" ] ~docv:"N"
        ~doc:"Daemon-wide SAT-conflict pool (see --wall-pool).")

let prop_pool =
  Arg.(
    value
    & opt (some int) None
    & info [ "prop-pool" ] ~docv:"N"
        ~doc:"Daemon-wide SAT-propagation pool (see --wall-pool).")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Content-addressed equivalence cache directory (created if \
           missing). Entries carry DRUP certificates or counterexamples \
           and survive restarts; corrupt entries are quarantined, never \
           served.")

let cache_max_bytes =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-max-bytes" ] ~docv:"BYTES"
        ~doc:
          "Hard ceiling on resident cache bytes; least-recently-used \
           entries are evicted (crash-safely) to stay under it.")

let cache_max_entries =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-max-entries" ] ~docv:"N"
        ~doc:"Hard ceiling on resident cache entries (see --cache-max-bytes).")

let paranoid =
  Arg.(
    value & flag
    & info [ "paranoid" ]
        ~doc:
          "Replay every cached DRUP certificate through the independent \
           checker before serving the hit; rejected certificates degrade \
           to fresh SAT queries and count into cache_rejected.")

let request_timeout =
  Arg.(
    value
    & opt (some float) None
    & info [ "request-timeout" ] ~docv:"SEC"
        ~doc:
          "Per-request budget cap; a request's own timeout_s can only \
           shrink it.")

let global_timeout =
  Arg.(
    value
    & opt (some float) None
    & info [ "global-timeout" ] ~docv:"SEC"
        ~doc:"Stop serving and drain after $(docv) seconds of lifetime.")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Stream progress to stderr (or STP_SWEEP_TRACE=1).")

let cmd =
  Cmd.v
    (Cmd.info "sweepd" ~doc:"serve sweep pipelines over a Unix socket")
    Term.(
      const (fun a b c d e f g h i j k l m n o p ->
          run a b c d e f g h i j k l m n o p ())
      $ socket $ domains $ queue_depth $ idle_timeout $ io_timeout
      $ retry_after $ wall_pool $ conflict_pool $ prop_pool $ cache_dir
      $ cache_max_bytes $ cache_max_entries $ paranoid $ request_timeout
      $ global_timeout $ trace)

let () = exit (Cmd.eval cmd)

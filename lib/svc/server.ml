module J = Obs.Json
module A = Aig.Network
module Pass = Stp_sweep.Pass
module Script = Stp_sweep.Script

(* Both force client-visible failures the protocol already owns:
   [svc.drop_conn] severs the connection after a request ran but before
   its response is written; [svc.slow_client] makes the server treat
   the connection as one that went silent (the idle-abort path) — the
   client sees EOF, never a fabricated response. *)
let fault_drop_conn = Obs.Fault.register "svc.drop_conn"
let fault_slow_client = Obs.Fault.register "svc.slow_client"

type config = {
  socket_path : string;
  domains : int;
  queue_depth : int;
  idle_timeout : float option;
  io_timeout : float option;
  retry_after_s : float;
  pool : Obs.Pool.t option;
  cache : Cache.t option;
  paranoid : bool;
  request_timeout : float option;
  global_timeout : float option;
  echo : string -> unit;
}

type outcome = {
  served : int;
  errors : int;
  dropped : int;
  shed : int;
  timeouts : int;
  write_aborts : int;
}

(* Everything a worker needs to serve, tally, and report health. *)
type state = {
  cfg : config;
  global_deadline : float option;
  stop : bool Atomic.t;
  start : float;
  queue : Unix.file_descr Queue.t;
  q_lock : Mutex.t;
  served : int Atomic.t;
  errors : int Atomic.t;
  dropped : int Atomic.t;
  shed : int Atomic.t;
  timeouts : int Atomic.t;
  write_aborts : int Atomic.t;
}

(* ---- one request, fully isolated ---- *)

let request_timeout cfg global_deadline (req : Proto.request) =
  let candidates =
    List.filter_map Fun.id
      [
        req.req_timeout;
        cfg.request_timeout;
        Option.map (fun d -> d -. Obs.Clock.now ()) global_deadline;
      ]
  in
  match candidates with
  | [] -> None
  | l ->
    (* A deadline already in the past still gets a sliver of budget:
       the pipeline then skips its transform passes and reports them
       skipped, rather than the request failing outright. *)
    Some (Float.max 0.01 (List.fold_left Float.min Float.infinity l))

(* [wall_s] is the pipeline span; [spans_s] adds decoding and encoding. *)
let process st (req : Proto.request) =
  let cfg = st.cfg in
  let id = req.req_id in
  let spans = Obs.Span.create [ "decode"; "pipeline"; "encode" ] in
  let span name f = Obs.Span.with_ spans name f in
  match
    let net, passes =
      span "decode" (fun () ->
          (Aig.Aiger.read req.aiger, Script.compile req.script))
    in
    let wall_cap = request_timeout cfg st.global_deadline req in
    (* With a pool armed, the request runs under a lease: its budget is
       min(request cap, fair share of what the daemon has left), the
       engine charges SAT work back to it, and release reclaims unspent
       allowance. An exhausted pool still grants a born-exhausted
       budget — the pipeline degrades to a proven partial result. *)
    let lease = Option.map (fun p -> Obs.Pool.lease ?wall_cap:wall_cap p) cfg.pool in
    Fun.protect
      ~finally:(fun () ->
        match (cfg.pool, lease) with
        | Some p, Some l -> Obs.Pool.release p l
        | _ -> ())
      (fun () ->
        let budget =
          match lease with
          | Some l -> Obs.Pool.budget l
          | None -> Obs.Budget.create ?timeout:wall_cap ()
        in
        let ctx =
          Pass.create_ctx ~budget
            ~verify:req.req_verify ~certify:req.req_certify
            ?cache:(Option.map Cache.ops cfg.cache)
            ~cache_paranoid:cfg.paranoid ~echo:ignore net
        in
        let result, records =
          span "pipeline" (fun () -> Pass.run_pipeline ctx passes net)
        in
        let aiger = span "encode" (fun () -> Aig.Aiger.write result) in
        let times = Obs.Span.totals spans in
        let report =
          J.Obj
            ([
               ("request_id", J.Int id);
               ("script", J.String req.script);
               ("input_ands", J.Int (A.num_ands net));
               ("result_ands", J.Int (A.num_ands result));
               ("wall_s", J.Float (List.assoc "pipeline" times));
               ( "spans_s",
                 J.Obj (List.map (fun (k, s) -> (k, J.Float s)) times) );
             ]
            @ Pass.summary_json ctx records
            @ (match cfg.cache with
              | None -> []
              | Some c -> [ ("cache", Cache.counters_json c) ])
            @ [ ("result_aiger", J.String aiger) ])
        in
        (report, A.num_ands net, A.num_ands result))
  with
  | report, before, after ->
    cfg.echo (Printf.sprintf "req %d: ok, %d -> %d ands" id before after);
    Proto.R_ok { rsp_id = id; report }
  | exception Proto.Parse_error m ->
    Proto.R_error { rsp_id = id; kind = "parse_error"; message = m }
  | exception Obs.Json.Parse_error (at, m) ->
    Proto.R_error
      {
        rsp_id = id;
        kind = "parse_error";
        message = Printf.sprintf "offset %d: %s" at m;
      }
  | exception Aig.Aiger.Parse_error m ->
    Proto.R_error { rsp_id = id; kind = "parse_error"; message = "aiger: " ^ m }
  | exception Script.Parse_error m ->
    Proto.R_error { rsp_id = id; kind = "parse_error"; message = "script: " ^ m }
  | exception Sweep.Engine.Verification_failed m ->
    Proto.R_error { rsp_id = id; kind = "verification_failed"; message = m }
  | exception exn ->
    Proto.R_error
      { rsp_id = id; kind = "internal"; message = Printexc.to_string exn }

(* ---- health ---- *)

let queue_len st =
  Mutex.lock st.q_lock;
  let n = Queue.length st.queue in
  Mutex.unlock st.q_lock;
  n

let health_json st =
  J.Obj
    ([
       ( "status",
         J.String (if Atomic.get st.stop then "draining" else "ok") );
       ("uptime_s", J.Float (Obs.Clock.now () -. st.start));
       ( "queue",
         J.Obj
           [
             ("depth", J.Int (queue_len st));
             ("limit", J.Int st.cfg.queue_depth);
           ] );
       ("served", J.Int (Atomic.get st.served));
       ("errors", J.Int (Atomic.get st.errors));
       ("shed", J.Int (Atomic.get st.shed));
       ("timeouts", J.Int (Atomic.get st.timeouts));
       ("write_aborts", J.Int (Atomic.get st.write_aborts));
       ("dropped", J.Int (Atomic.get st.dropped));
     ]
    @ (match st.cfg.pool with
      | Some p -> [ ("pool", Obs.Pool.stats_json p) ]
      | None -> [ ("pool", J.Null) ])
    @ (match st.cfg.cache with
      | Some c -> [ ("cache", Cache.counters_json c) ]
      | None -> [ ("cache", J.Null) ])
    @
    (* The process-wide kernel compile cache: simulation plans compiled
       while serving requests share cascades through it, so hits here
       mean a request reused another request's compilations. *)
    let k = Sim.Kernel.Cache.shared () in
    [
      ( "sim_compile_cache",
        J.Obj
          [
            ("hits", J.Int (Sim.Kernel.Cache.hits k));
            ("misses", J.Int (Sim.Kernel.Cache.misses k));
            ("evictions", J.Int (Sim.Kernel.Cache.evictions k));
            ("entries", J.Int (Sim.Kernel.Cache.length k));
          ] );
    ])

(* ---- connection loop ---- *)

(* Wait for the next frame: ticks every 0.2s so the worker observes
   [stop] and the idle deadline while parked in [select]. *)
let rec wait_readable ?deadline stop fd =
  if Atomic.get stop then `Stop
  else if
    match deadline with Some d -> Obs.Clock.now () >= d | None -> false
  then `Idle
  else
    match Unix.select [ fd ] [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      wait_readable ?deadline stop fd
    | [], _, _ -> wait_readable ?deadline stop fd
    | _ -> `Ready

(* Best-effort response on a connection we are about to close anyway —
   the peer may already be gone. *)
let write_best_effort fd rsp =
  try Proto.write_frame_fd fd (Proto.response_to_string rsp) with _ -> ()

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let overload_rsp cfg =
  Proto.R_overloaded { rsp_id = 0; retry_after_s = cfg.retry_after_s }

let handle_conn st conn =
  let cfg = st.cfg in
  (* Some systems hand accepted sockets the listener's O_NONBLOCK. *)
  Unix.clear_nonblock conn;
  (* Read/write deadlines at the socket level: a peer that stalls
     mid-frame (slow loris) or stops draining its response trips
     EAGAIN, which aborts this connection — the worker is never parked
     on one peer forever. *)
  (match cfg.io_timeout with
  | Some t ->
    (try
       Unix.setsockopt_float conn Unix.SO_RCVTIMEO t;
       Unix.setsockopt_float conn Unix.SO_SNDTIMEO t
     with Unix.Unix_error _ -> ())
  | None -> ());
  let count r =
    match r with
    | Proto.R_ok _ -> Atomic.incr st.served
    | Proto.R_error _ -> Atomic.incr st.errors
    | Proto.R_overloaded _ -> Atomic.incr st.shed
    | Proto.R_health _ -> ()
  in
  let rec serve () =
    if Obs.Fault.fires fault_slow_client then begin
      (* Behave exactly as if the peer went silent past the idle
         deadline: count the timeout, hang up. *)
      cfg.echo "conn: idle-abort (svc.slow_client fault)";
      Atomic.incr st.timeouts
    end
    else
      let deadline =
        Option.map (fun t -> Obs.Clock.now () +. t) cfg.idle_timeout
      in
      match wait_readable ?deadline st.stop conn with
      | `Stop -> ()
      | `Idle -> Atomic.incr st.timeouts
      | `Ready -> (
        match Proto.read_frame_fd conn with
        | None -> () (* clean EOF *)
        | Some payload -> (
          match Proto.client_msg_of_string payload with
          | Proto.M_health { h_id } ->
            Proto.write_frame_fd conn
              (Proto.response_to_string
                 (Proto.R_health { rsp_id = h_id; health = health_json st }));
            serve ()
          | Proto.M_run req ->
            let rsp = process st req in
            if Obs.Fault.fires fault_drop_conn then (
              cfg.echo
                (Printf.sprintf "req %d: connection dropped (fault)" req.req_id);
              Atomic.incr st.dropped (* close without responding *))
            else (
              Proto.write_frame_fd conn (Proto.response_to_string rsp);
              count rsp;
              serve ())
          | exception Proto.Parse_error m ->
            (* The frame arrived intact but its payload is garbage: the
               stream is still framed, so answer and keep serving. *)
            let rsp =
              Proto.R_error { rsp_id = 0; kind = "parse_error"; message = m }
            in
            Proto.write_frame_fd conn (Proto.response_to_string rsp);
            Atomic.incr st.errors;
            serve ())
        | exception Proto.Parse_error m ->
          (* Framing itself is broken; best-effort error, then hang up. *)
          write_best_effort conn
            (Proto.R_error { rsp_id = 0; kind = "parse_error"; message = m });
          Atomic.incr st.errors)
  in
  (* A peer that vanished mid-write (EPIPE, reset — counted) or stalled
     past the socket deadline (EAGAIN — counted as a timeout) is its
     own problem; the worker moves on to the next connection. *)
  (try serve () with
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
    Atomic.incr st.write_aborts;
    cfg.echo "conn: write aborted (peer gone)"
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Atomic.incr st.timeouts;
    cfg.echo "conn: i/o deadline exceeded"
  | Unix.Unix_error _ | Sys_error _ -> ());
  close_quiet conn

(* ---- admission queue ---- *)

let try_dequeue st =
  Mutex.lock st.q_lock;
  let c = if Queue.is_empty st.queue then None else Some (Queue.pop st.queue) in
  Mutex.unlock st.q_lock;
  c

(* Admission control: beyond the high-water mark the connection is
   answered [R_overloaded] and closed — a prompt typed answer beats an
   unbounded queue that times every client out. *)
let enqueue_or_shed st conn =
  Mutex.lock st.q_lock;
  let depth = Queue.length st.queue in
  let admit = depth < st.cfg.queue_depth in
  if admit then Queue.push conn st.queue;
  Mutex.unlock st.q_lock;
  if not admit then begin
    write_best_effort conn (overload_rsp st.cfg);
    close_quiet conn;
    Atomic.incr st.shed;
    st.cfg.echo (Printf.sprintf "conn: shed (queue at %d)" depth)
  end

(* Drain: connections still queued when the daemon stops get the same
   typed answer, not a silent close. *)
let shed_queue st =
  let rec go () =
    match try_dequeue st with
    | None -> ()
    | Some conn ->
      write_best_effort conn (overload_rsp st.cfg);
      close_quiet conn;
      Atomic.incr st.shed;
      go ()
  in
  go ()

(* ---- accept loop ---- *)

(* Linux's [sun_path] holds 108 bytes, the terminating NUL included. *)
let max_socket_path = 107

(* Distinguishes the private bind names of servers in one process. *)
let binds = Atomic.make 0

(* [.PID.N] in hex: at most 9 bytes for a Linux pid (below 2^22) and a
   process's first 16 servers. *)
let private_name () =
  Printf.sprintf ".%x.%x" (Unix.getpid ()) (Atomic.fetch_and_add binds 1)

let run ?(stop = Atomic.make false) cfg =
  (* A client that disappears mid-response must surface as EPIPE on the
     write, not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let st =
    {
      cfg;
      global_deadline =
        Option.map (fun s -> Obs.Clock.now () +. s) cfg.global_timeout;
      stop;
      start = Obs.Clock.now ();
      queue = Queue.create ();
      q_lock = Mutex.create ();
      served = Atomic.make 0;
      errors = Atomic.make 0;
      dropped = Atomic.make 0;
      shed = Atomic.make 0;
      timeouts = Atomic.make 0;
      write_aborts = Atomic.make 0;
    }
  in
  (* Bind under a private name in the same directory, listen, then
     rename onto the socket path: the path exists only while something
     accepts on it, so a probe can never catch the bind-to-listen gap
     and read a starting daemon as stale. The rename also replaces a
     stale leftover atomically. *)
  let private_path =
    Filename.concat (Filename.dirname cfg.socket_path) (private_name ())
  in
  List.iter
    (fun (path, what) ->
      if String.length path > max_socket_path then
        raise
          (Unix.Unix_error
             ( Unix.ENAMETOOLONG,
               "bind",
               Printf.sprintf "%s (%s is over %d bytes)" cfg.socket_path what
                 max_socket_path )))
    [
      (cfg.socket_path, "the path");
      (private_path, "its private bind name " ^ private_path);
    ];
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Only a dead process with our pid can have left this name behind. *)
  (try Unix.unlink private_path with Unix.Unix_error _ -> ());
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX private_path);
     Unix.listen listen_fd 64;
     Unix.set_nonblock listen_fd;
     Unix.rename private_path cfg.socket_path
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     (try Unix.unlink private_path with Unix.Unix_error _ -> ());
     raise e);
  let workers = max 1 cfg.domains in
  cfg.echo
    (Printf.sprintf "listening on %s (%d worker domain%s, queue %d)"
       cfg.socket_path workers
       (if workers = 1 then "" else "s")
       cfg.queue_depth);
  (* The acceptor owns the listener and the admission decision, so
     shedding happens at accept time, before a worker is committed. It
     is a systhread of domain 0, blocked in [select] nearly always: a
     domain of its own would idle beside the workers and slow them. *)
  let acceptor () =
    let rec loop () =
      (match st.global_deadline with
      | Some d when Obs.Clock.now () >= d -> Atomic.set stop true
      | _ -> ());
      if not (Atomic.get stop) then begin
        (match Unix.select [ listen_fd ] [] [] 0.2 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> ()
        | _ -> (
          match Unix.accept ~cloexec:true listen_fd with
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            ()
          | conn, _ -> enqueue_or_shed st conn));
        loop ()
      end
    in
    loop ()
  in
  let worker () =
    let rec loop () =
      if not (Atomic.get stop) then
        match try_dequeue st with
        | Some conn ->
          handle_conn st conn;
          loop ()
        | None ->
          Unix.sleepf 0.02;
          loop ()
    in
    loop ()
  in
  let accepting = Thread.create acceptor () in
  (* Workers return once [stop] is set, and one that raises sets it, so
     the other workers and the acceptor always end. Worker 0 runs on
     domain 0 beside the acceptor. *)
  Fun.protect
    ~finally:(fun () -> Thread.join accepting)
    (fun () ->
      Sutil.Par.run ~domains:workers (fun _ ->
          Fun.protect ~finally:(fun () -> Atomic.set stop true) worker));
  shed_queue st;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  {
    served = Atomic.get st.served;
    errors = Atomic.get st.errors;
    dropped = Atomic.get st.dropped;
    shed = Atomic.get st.shed;
    timeouts = Atomic.get st.timeouts;
    write_aborts = Atomic.get st.write_aborts;
  }

(* Sweep-service tests: the framed wire protocol (round-trips, hostile
   frames), and a live daemon loop — requests served over a real Unix
   socket, per-request isolation (a garbage request answers an error
   and the next request on the same connection still works), the
   drop_conn fault, and cooperative drain. *)

module A = Aig.Network
module L = Aig.Lit
module Rng = Sutil.Rng
module J = Obs.Json
module Proto = Svc.Proto

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let random_network rng ~pis ~gates ~pos =
  let net = A.create () in
  let inputs = Array.init pis (fun _ -> A.add_pi net) in
  let all = ref (Array.to_list inputs) in
  for _ = 1 to gates do
    let pick () =
      let l = List.nth !all (Rng.int rng (List.length !all)) in
      L.xor_compl l (Rng.bool rng)
    in
    let l = A.add_and net (pick ()) (pick ()) in
    if not (L.is_const l) then all := l :: !all
  done;
  for _ = 1 to pos do
    let l = List.nth !all (Rng.int rng (List.length !all)) in
    ignore (A.add_po net (L.xor_compl l (Rng.bool rng)))
  done;
  net

(* ---- framing ---- *)

let with_pipe f =
  let rd, wr = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close rd with Unix.Unix_error _ -> ());
      try Unix.close wr with Unix.Unix_error _ -> ())
    (fun () -> f rd wr)

let test_frame_fd_roundtrip () =
  with_pipe @@ fun rd wr ->
  List.iter
    (fun payload ->
      Proto.write_frame_fd wr payload;
      match Proto.read_frame_fd rd with
      | Some got -> check_str "payload round-trips" payload got
      | None -> Alcotest.fail "unexpected EOF")
    (* Payloads stay under the pipe buffer: writer and reader alternate
       in one thread here. *)
    [ ""; "x"; "{\"id\":1}"; String.make 20_000 'a'; "\x00\xff\n binary \x01" ];
  Unix.close wr;
  match Proto.read_frame_fd rd with
  | None -> ()
  | Some _ -> Alcotest.fail "expected clean EOF at the frame boundary"

let test_frame_truncation () =
  (* A header announcing more bytes than ever arrive. *)
  with_pipe (fun rd wr ->
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 100l;
      ignore (Unix.write wr hdr 0 4);
      ignore (Unix.write_substring wr "short" 0 5);
      Unix.close wr;
      match Proto.read_frame_fd rd with
      | exception Proto.Parse_error _ -> ()
      | Some _ | None -> Alcotest.fail "truncated frame must be a Parse_error");
  (* A header cut off mid-length. *)
  with_pipe (fun rd wr ->
      ignore (Unix.write_substring wr "\x00\x00" 0 2);
      Unix.close wr;
      match Proto.read_frame_fd rd with
      | exception Proto.Parse_error _ -> ()
      | Some _ | None -> Alcotest.fail "truncated header must be a Parse_error");
  (* A length prefix announcing a memory bomb: rejected before
     allocation, without reading the (absent) payload. *)
  with_pipe (fun rd wr ->
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 0x7fffffffl;
      ignore (Unix.write wr hdr 0 4);
      match Proto.read_frame_fd rd with
      | exception Proto.Parse_error _ -> ()
      | Some _ | None -> Alcotest.fail "oversized frame must be a Parse_error")

let arb_request =
  let arb_str = QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 200)) in
  QCheck.make
    ~print:(fun (r : Proto.request) -> J.to_string (Proto.request_to_json r))
    QCheck.Gen.(
      let* req_id = int_range 0 1_000_000 in
      let* script = arb_str in
      let* aiger = arb_str in
      let* req_timeout = opt (map (fun f -> Float.abs f) float) in
      let* req_verify = bool in
      let* req_certify = bool in
      return { Proto.req_id; script; aiger; req_timeout; req_verify; req_certify })

let prop_request_roundtrip (r : Proto.request) =
  let r' = Proto.request_of_string (J.to_string (Proto.request_to_json r)) in
  r' = r
  ||
  QCheck.Test.fail_reportf "request did not round-trip: %s"
    (J.to_string (Proto.request_to_json r'))

let test_response_codec () =
  List.iter
    (fun rsp ->
      let rsp' =
        match J.parse (Proto.response_to_string rsp) with
        | j -> Proto.response_of_json j
        | exception J.Parse_error _ -> Alcotest.fail "response must serialize"
      in
      check "response round-trips" true (rsp = rsp'))
    [
      Proto.R_ok { rsp_id = 3; report = J.Obj [ ("cec", J.String "equivalent") ] };
      Proto.R_error { rsp_id = 0; kind = "parse_error"; message = "x\n\"y\"" };
      Proto.R_overloaded { rsp_id = 0; retry_after_s = 0.25 };
      Proto.R_health
        { rsp_id = 4; health = J.Obj [ ("status", J.String "ok") ] };
    ];
  (* A frame without "op" is a run request (wire compatibility); "op":
     "health" routes to M_health; anything else is a typed error. *)
  (match
     Proto.client_msg_of_string
       "{\"id\":5,\"script\":\"ps\",\"aiger\":\"aag 0 0 0 0 0\"}"
   with
  | Proto.M_run r -> check_int "legacy frame is a run request" 5 r.Proto.req_id
  | _ -> Alcotest.fail "frame without op must decode as M_run");
  (match Proto.client_msg_of_string "{\"id\":6,\"op\":\"health\"}" with
  | Proto.M_health { h_id } -> check_int "health op id" 6 h_id
  | _ -> Alcotest.fail "op=health must decode as M_health");
  (match Proto.client_msg_of_string "{\"id\":7,\"op\":\"reboot\"}" with
  | _ -> Alcotest.fail "unknown op accepted"
  | exception Proto.Parse_error _ -> ());
  (* Decoding hostility: missing fields and type confusion are
     Parse_error, never Match_failure or a crash. *)
  List.iter
    (fun txt ->
      match Proto.request_of_string txt with
      | _ -> Alcotest.failf "hostile request accepted: %s" txt
      | exception Proto.Parse_error _ -> ())
    [
      "{}";
      "[]";
      "{\"id\":\"one\",\"script\":\"\",\"aiger\":\"\"}";
      "{\"id\":1,\"script\":null,\"aiger\":\"\"}";
      "{\"id\":1,\"script\":\"\",\"aiger\":\"\",\"timeout_s\":\"soon\"}";
      "{\"id\":1,\"script\":\"\",\"aiger\":\"\",\"verify\":1}";
      "not json";
    ]

(* ---- the live daemon loop ---- *)

let with_server ?cache_dir ?(paranoid = false) ?(domains = 1)
    ?(queue_depth = 16) ?idle_timeout ?io_timeout ?(retry_after_s = 0.05)
    ?pool ?request_timeout ?sock f =
  let dir = Filename.temp_file "svcsock" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let sock =
    match sock with Some s -> s | None -> Filename.concat dir "d.sock"
  in
  let stop = Atomic.make false in
  let cache = Option.map (fun d -> Svc.Cache.open_ d) cache_dir in
  let srv =
    Domain.spawn (fun () ->
        Svc.Server.run ~stop
          {
            Svc.Server.socket_path = sock;
            domains;
            queue_depth;
            idle_timeout;
            io_timeout;
            retry_after_s;
            pool;
            cache;
            paranoid;
            request_timeout;
            global_timeout = Some 60.0;
            echo = ignore;
          })
  in
  let rec wait n =
    if not (Sys.file_exists sock) then
      if n = 0 then Alcotest.fail "server socket never appeared"
      else begin
        Unix.sleepf 0.02;
        wait (n - 1)
      end
  in
  wait 250;
  let finish () =
    Atomic.set stop true;
    Domain.join srv
  in
  match f sock with
  | v ->
    let outcome = finish () in
    check "socket unlinked after drain" false (Sys.file_exists sock);
    (try Unix.rmdir dir with Unix.Unix_error _ -> ());
    (v, outcome)
  | exception e ->
    ignore (finish ());
    raise e

let send_recv oc ic req =
  Proto.write_request oc req;
  Proto.read_response ic

let request ?(id = 1) ?(script = "sweep -e stp; verify") ?(verify = false)
    ?(certify = false) aiger =
  {
    Proto.req_id = id;
    script;
    aiger;
    req_timeout = None;
    req_verify = verify;
    req_certify = certify;
  }

let test_server_roundtrip () =
  let rng = Rng.create 0x5E44E4L in
  let base = random_network rng ~pis:7 ~gates:80 ~pos:4 in
  let net = Gen.Redundant.inject ~seed:3L ~fraction:0.4 base in
  let aiger = Aig.Aiger.write net in
  let (), outcome =
    with_server @@ fun sock ->
    let ic, oc = Unix.open_connection (Unix.ADDR_UNIX sock) in
    (* 1: a good request. *)
    (match send_recv oc ic (request ~id:7 aiger) with
    | Some (Proto.R_ok { rsp_id; report }) ->
      check_int "id echoed" 7 rsp_id;
      check "cec equivalent" true
        (J.member "cec" report = Some (J.String "equivalent"));
      (match J.member "result_aiger" report with
      | Some (J.String aag) ->
        let swept = Aig.Aiger.read aag in
        (match Sweep.Cec.check net swept with
        | Sweep.Cec.Equivalent -> ()
        | _ -> Alcotest.fail "returned AIG not equivalent to the input");
        check "server swept something" true (A.num_ands swept <= A.num_ands net)
      | _ -> Alcotest.fail "report carries no result_aiger")
    | _ -> Alcotest.fail "expected R_ok for the good request");
    (* 2: a bad script — isolated error, connection survives. *)
    (match send_recv oc ic (request ~id:8 ~script:"no-such-pass" aiger) with
    | Some (Proto.R_error { rsp_id; kind; _ }) ->
      check_int "id echoed on error" 8 rsp_id;
      check_str "script error kind" "parse_error" kind
    | _ -> Alcotest.fail "expected R_error for the bad script");
    (* 3: a bad AIGER payload. *)
    (match send_recv oc ic (request ~id:9 "not an aiger file") with
    | Some (Proto.R_error { kind; _ }) -> check_str "aiger error kind" "parse_error" kind
    | _ -> Alcotest.fail "expected R_error for the bad AIGER");
    (* 4: an unparsable frame payload — answered with id 0, still alive. *)
    Proto.write_frame oc "this is not json";
    (match Proto.read_response ic with
    | Some (Proto.R_error { rsp_id; kind; _ }) ->
      check_int "unattributable error is id 0" 0 rsp_id;
      check_str "frame error kind" "parse_error" kind
    | _ -> Alcotest.fail "expected R_error for the garbage frame");
    (* 5: the same connection still serves. *)
    (match send_recv oc ic (request ~id:10 aiger) with
    | Some (Proto.R_ok { rsp_id; _ }) -> check_int "survivor id" 10 rsp_id
    | _ -> Alcotest.fail "connection did not survive the garbage frame");
    Unix.shutdown_connection ic
  in
  check_int "served" 2 outcome.Svc.Server.served;
  check_int "errors" 3 outcome.Svc.Server.errors;
  check_int "dropped" 0 outcome.Svc.Server.dropped

let test_server_drop_conn_fault () =
  (* Linking Svc.Server must register its fault site (test_sweep checks
     the rest of the catalog; this binary is the one that links svc). *)
  if not (List.mem "svc.drop_conn" (Obs.Fault.catalog ())) then
    Alcotest.fail "svc.drop_conn not in the fault catalog";
  let rng = Rng.create 0xD409L in
  let net = random_network rng ~pis:6 ~gates:40 ~pos:3 in
  let aiger = Aig.Aiger.write net in
  let (), outcome =
    with_server @@ fun sock ->
    (match Obs.Fault.configure "seed=1,svc.drop_conn" with
    | Ok () -> ()
    | Error e -> Alcotest.failf "bad fault spec: %s" e);
    Fun.protect ~finally:Obs.Fault.reset (fun () ->
        let ic, oc = Unix.open_connection (Unix.ADDR_UNIX sock) in
        match send_recv oc ic (request ~id:11 aiger) with
        | None -> (* the server hung up before responding — as injected *) ()
        | Some _ -> Alcotest.fail "drop_conn fault did not drop the response");
    (* The daemon survives its own fault: a fresh connection serves. *)
    let ic, oc = Unix.open_connection (Unix.ADDR_UNIX sock) in
    (match send_recv oc ic (request ~id:12 aiger) with
    | Some (Proto.R_ok { rsp_id; _ }) -> check_int "served after drop" 12 rsp_id
    | _ -> Alcotest.fail "daemon did not survive the dropped connection");
    Unix.shutdown_connection ic
  in
  check_int "dropped counted" 1 outcome.Svc.Server.dropped;
  check_int "served counted" 1 outcome.Svc.Server.served

(* Copy [src] into [dst] with its PIs bound to [pis]; returns the
   copy's PO literals. *)
let copy_onto dst pis src =
  let map = Array.make (A.num_nodes src) L.false_ in
  let tr l = L.xor_compl map.(L.node l) (L.is_compl l) in
  A.iter_nodes src (fun n ->
      match A.kind src n with
      | A.Const -> ()
      | A.Pi i -> map.(n) <- pis.(i)
      | A.And ->
        map.(n) <- A.add_and dst (tr (A.fanin0 src n)) (tr (A.fanin1 src n)));
  Array.map tr (A.pos src)

let test_server_warm_cache () =
  (* Same request twice through one daemon with a disk cache: the warm
     report must show hits, no rejected certificates, and the same
     result size — the service-level version of the engine tests. *)
  (* Two 16-bit adders of different structure on shared PIs: their
     carries span up to 32 PIs (> window_max_leaves = 16) and differ
     structurally beyond any 5-leaf cut, so neither window tier proves
     them and the sweep needs real SAT proofs — which the cache then
     serves. *)
  let net = A.create () in
  let pis = Array.init 32 (fun _ -> A.add_pi net) in
  List.iter
    (fun adder ->
      Array.iter (fun l -> ignore (A.add_po net l)) (copy_onto net pis adder))
    [ Gen.Arith.ripple_adder ~width:16; Gen.Arith.kogge_stone_adder ~width:16 ];
  let aiger = Aig.Aiger.write net in
  let dir = Filename.temp_file "svccache" "" in
  Sys.remove dir;
  let counters report =
    match J.member "passes" report with
    | Some (J.List (first :: _)) -> (
      match J.member "stats" first with
      | Some stats -> (
        match J.member "counters" stats with
        | Some (J.Obj kvs) -> kvs
        | _ -> Alcotest.fail "no counters in the sweep record")
      | _ -> Alcotest.fail "no stats in the sweep record")
    | _ -> Alcotest.fail "no pass records in the report"
  in
  let int_counter kvs name =
    match List.assoc_opt name kvs with
    | Some (J.Int i) -> i
    | _ -> Alcotest.failf "counter %s missing" name
  in
  let (), _ =
    with_server ~cache_dir:dir ~paranoid:true @@ fun sock ->
    let run id =
      let ic, oc = Unix.open_connection (Unix.ADDR_UNIX sock) in
      let rsp = send_recv oc ic (request ~id ~certify:true aiger) in
      Unix.shutdown_connection ic;
      match rsp with
      | Some (Proto.R_ok { report; _ }) -> report
      | _ -> Alcotest.fail "expected R_ok"
    in
    let cold = counters (run 1) in
    let warm = counters (run 2) in
    check "cold run missed" true (int_counter cold "cache_misses" > 0);
    check_int "cold run had no hits" 0 (int_counter cold "cache_hits");
    check "warm run hit" true (int_counter warm "cache_hits" > 0);
    check_int "warm run missed nothing" 0 (int_counter warm "cache_misses");
    check_int "no rejected certificates" 0 (int_counter warm "cache_rejected");
    check_int "merges identical" (int_counter cold "merges")
      (int_counter warm "merges")
  in
  ()

(* ---- overload: admission control, shedding, the retrying client ---- *)

let tmp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let test_overload_shedding () =
  let rng = Rng.create 0x0AD5L in
  let net = random_network rng ~pis:5 ~gates:30 ~pos:2 in
  let aiger = Aig.Aiger.write net in
  let (), outcome =
    with_server ~domains:1 ~queue_depth:1 ~retry_after_s:0.07 @@ fun sock ->
    (* Occupy the single worker with a connection that sends nothing. *)
    let hog_ic, _hog_oc = Unix.open_connection (Unix.ADDR_UNIX sock) in
    Unix.sleepf 0.3;
    (* Fill the one queue slot. *)
    let fill_ic, fill_oc = Unix.open_connection (Unix.ADDR_UNIX sock) in
    Unix.sleepf 0.3;
    (* Admission control: the next connection is shed at the gate with
       a typed answer carrying the configured hint, then closed. *)
    let shed_ic, _shed_oc = Unix.open_connection (Unix.ADDR_UNIX sock) in
    (match Proto.read_response shed_ic with
    | Some (Proto.R_overloaded { rsp_id; retry_after_s }) ->
      check_int "shed answer is unattributable (id 0)" 0 rsp_id;
      check "retry_after hint" true
        (Float.abs (retry_after_s -. 0.07) < 1e-9)
    | _ -> Alcotest.fail "expected R_overloaded at the admission gate");
    (match Proto.read_response shed_ic with
    | None -> ()
    | Some _ -> Alcotest.fail "shed connection must be closed");
    (try Unix.shutdown_connection shed_ic with Unix.Unix_error _ -> ());
    (* Release the worker: the queued connection is served normally —
       shedding guards the gate, it never drops admitted work. *)
    Unix.shutdown_connection hog_ic;
    (match send_recv fill_oc fill_ic (request ~id:20 aiger) with
    | Some (Proto.R_ok { rsp_id; _ }) -> check_int "queued conn served" 20 rsp_id
    | _ -> Alcotest.fail "queued connection not served after the hog left");
    Unix.shutdown_connection fill_ic
  in
  check "shed counted" true (outcome.Svc.Server.shed >= 1);
  check_int "served" 1 outcome.Svc.Server.served

let test_client_retry () =
  let rng = Rng.create 0xC11E47L in
  let net = random_network rng ~pis:5 ~gates:30 ~pos:2 in
  let aiger = Aig.Aiger.write net in
  let (), outcome =
    with_server ~domains:1 ~queue_depth:1 ~retry_after_s:0.05 @@ fun sock ->
    let hog_ic, _hog_oc = Unix.open_connection (Unix.ADDR_UNIX sock) in
    Unix.sleepf 0.3;
    let fill_ic, fill_oc = Unix.open_connection (Unix.ADDR_UNIX sock) in
    Unix.sleepf 0.3;
    (* A Svc.Client against the saturated daemon: it must absorb the
       R_overloaded answers with backoff and win once capacity frees. *)
    let client =
      Domain.spawn (fun () ->
          let policy =
            {
              Svc.Client.retries = 60;
              base_backoff_s = 0.02;
              max_backoff_s = 0.1;
              retry_budget_s = 20.0;
              jitter = 0.5;
            }
          in
          match Svc.Client.connect ~policy sock with
          | Error e -> Error e
          | Ok c ->
            Fun.protect ~finally:(fun () -> Svc.Client.close c) @@ fun () ->
            (match Svc.Client.request c (request ~id:21 aiger) with
            | Ok (Proto.R_ok { rsp_id; _ }) when rsp_id = 21 ->
              Ok (Svc.Client.retries_performed c)
            | Ok _ -> Error (Svc.Client.E_protocol "unexpected response")
            | Error e -> Error e))
    in
    (* Let it hit the admission gate at least once, then make room. *)
    Unix.sleepf 0.4;
    Unix.shutdown_connection hog_ic;
    (match send_recv fill_oc fill_ic (request ~id:22 aiger) with
    | Some (Proto.R_ok _) -> ()
    | _ -> Alcotest.fail "filler was not served");
    Unix.shutdown_connection fill_ic;
    match Domain.join client with
    | Ok retries -> check "client backed off and retried" true (retries > 0)
    | Error e ->
      Alcotest.failf "client failed: %s" (Svc.Client.error_to_string e)
  in
  check "both requests served" true (outcome.Svc.Server.served >= 2)

let test_health () =
  let pool = Obs.Pool.create ~wall_s:60.0 ~conflicts:1_000_000 () in
  let dir = tmp_dir "svchealth" in
  let (), _outcome =
    with_server ~cache_dir:dir ~queue_depth:7 ~pool @@ fun sock ->
    match Svc.Client.connect sock with
    | Error e -> Alcotest.failf "connect: %s" (Svc.Client.error_to_string e)
    | Ok c ->
      Fun.protect ~finally:(fun () -> Svc.Client.close c) @@ fun () ->
      (match Svc.Client.health ~id:33 c with
      | Error e -> Alcotest.failf "health: %s" (Svc.Client.error_to_string e)
      | Ok h ->
        check "status ok" true (J.member "status" h = Some (J.String "ok"));
        (match J.member "queue" h with
        | Some q ->
          check "queue limit echoed" true
            (J.member "limit" q = Some (J.Int 7))
        | None -> Alcotest.fail "health carries no queue object");
        (match J.member "pool" h with
        | Some (J.Obj _ as p) -> (
          match J.member "wall_s" p with
          | Some w ->
            check "wall pool limited" true
              (J.member "limited" w = Some (J.Bool true))
          | None -> Alcotest.fail "pool object carries no wall_s")
        | _ -> Alcotest.fail "health carries no pool object");
        (match J.member "cache" h with
        | Some (J.Obj _) -> ()
        | _ -> Alcotest.fail "health carries no cache object");
        check "nothing served yet" true
          (J.member "served" h = Some (J.Int 0)));
      (* health is answered inline — the same connection still serves a
         run request afterwards. *)
      match Svc.Client.health c with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "second health: %s" (Svc.Client.error_to_string e)
  in
  ()

let stats_of_report report =
  match J.member "passes" report with
  | Some (J.List (first :: _)) -> (
    match J.member "stats" first with
    | Some stats -> stats
    | None -> Alcotest.fail "no stats in the sweep record")
  | _ -> Alcotest.fail "no pass records in the report"

let test_pool_exhaustion_degrades () =
  (* A one-conflict pool is exhausted by the first SAT query, so every
     request runs under a born-starved lease: the daemon must answer
     R_ok with a proven partial result (budget_exhausted reported, CEC
     equivalent, zero rejected certificates) — never an error — and the
     pool books must balance once the daemon drains. *)
  let pool = Obs.Pool.create ~conflicts:1 () in
  let rng = Rng.create 0xB0071EL in
  let base = random_network rng ~pis:24 ~gates:260 ~pos:6 in
  let net = Gen.Redundant.inject ~seed:5L ~fraction:0.5 base in
  let aiger = Aig.Aiger.write net in
  let (), outcome =
    with_server ~pool @@ fun sock ->
    let ic, oc = Unix.open_connection (Unix.ADDR_UNIX sock) in
    (match send_recv oc ic (request ~id:40 ~certify:true aiger) with
    | Some (Proto.R_ok { rsp_id; report }) ->
      check_int "id echoed" 40 rsp_id;
      check "partial result still proven" true
        (J.member "cec" report = Some (J.String "equivalent"));
      let stats = stats_of_report report in
      (match J.member "budget_exhausted" stats with
      | Some (J.Obj _) -> ()
      | _ -> Alcotest.fail "exhausted pool must report budget_exhausted");
      (match J.member "counters" stats with
      | Some counters ->
        check "no rejected certificates" true
          (J.member "certificate_rejected" counters = Some (J.Int 0))
      | None -> Alcotest.fail "no counters in the sweep record")
    | Some (Proto.R_error { message; _ }) ->
      Alcotest.failf "pool exhaustion must degrade, not error: %s" message
    | _ -> Alcotest.fail "expected R_ok under the exhausted pool");
    Unix.shutdown_connection ic
  in
  check_int "served" 1 outcome.Svc.Server.served;
  let s = Obs.Pool.stats pool in
  check_int "pool quiescent" 0 s.Obs.Pool.s_inflight;
  check "lease granted" true (s.s_leases >= 1);
  match s.s_conflicts_total with
  | Some total ->
    check_int "conflict conservation" total
      (s.s_conflicts_remaining + s.s_conflicts_consumed)
  | None -> Alcotest.fail "conflict pool must be limited"

let test_idle_timeout () =
  let rng = Rng.create 0x1D1EL in
  let net = random_network rng ~pis:4 ~gates:12 ~pos:2 in
  let aiger = Aig.Aiger.write net in
  let (), outcome =
    with_server ~idle_timeout:0.25 @@ fun sock ->
    let ic, oc = Unix.open_connection (Unix.ADDR_UNIX sock) in
    (match send_recv oc ic (request ~id:50 aiger) with
    | Some (Proto.R_ok _) -> ()
    | _ -> Alcotest.fail "request before idling must serve");
    (* Now go quiet: the server hangs up rather than let us park a
       worker forever. *)
    (match Proto.read_response ic with
    | None -> ()
    | Some _ -> Alcotest.fail "expected the idle hangup"
    | exception Proto.Parse_error _ -> ());
    (try Unix.shutdown_connection ic with Unix.Unix_error _ -> ())
  in
  check "idle hangup counted" true (outcome.Svc.Server.timeouts >= 1);
  check_int "served before idling" 1 outcome.Svc.Server.served

let test_slow_client_fault () =
  List.iter
    (fun site ->
      if not (List.mem site (Obs.Fault.catalog ())) then
        Alcotest.failf "%s not in the fault catalog" site)
    [ "svc.slow_client"; "cache.evict_race" ];
  let rng = Rng.create 0x510C1L in
  let net = random_network rng ~pis:4 ~gates:12 ~pos:2 in
  let aiger = Aig.Aiger.write net in
  let (), outcome =
    with_server @@ fun sock ->
    (match Obs.Fault.configure "seed=1,svc.slow_client" with
    | Ok () -> ()
    | Error e -> Alcotest.failf "bad fault spec: %s" e);
    Fun.protect ~finally:Obs.Fault.reset (fun () ->
        let ic, oc = Unix.open_connection (Unix.ADDR_UNIX sock) in
        (* The server treats us as a stalled peer and hangs up; the
           write may race the close, which is exactly the EPIPE path
           the daemon itself must also survive. *)
        (match send_recv oc ic (request ~id:60 aiger) with
        | None -> ()
        | Some _ -> Alcotest.fail "slow_client fault did not abort the conn"
        | exception Unix.Unix_error (Unix.EPIPE, _, _) -> ()
        | exception Sys_error _ -> (* reset mid-read: same abort *) ());
        (try Unix.shutdown_connection ic with Unix.Unix_error _ -> ()));
    let ic, oc = Unix.open_connection (Unix.ADDR_UNIX sock) in
    (match send_recv oc ic (request ~id:61 aiger) with
    | Some (Proto.R_ok { rsp_id; _ }) -> check_int "served after fault" 61 rsp_id
    | _ -> Alcotest.fail "daemon did not survive slow_client");
    Unix.shutdown_connection ic
  in
  check "abort counted" true (outcome.Svc.Server.timeouts >= 1);
  check_int "served" 1 outcome.Svc.Server.served

let test_probe () =
  let dir = tmp_dir "svcprobe" in
  let missing = Filename.concat dir "nothing.sock" in
  check "no file probes absent" true (Svc.Client.probe missing = `Absent);
  let sock_path, _ =
    with_server @@ fun sock ->
    check "running daemon probes live" true (Svc.Client.probe sock = `Live);
    sock
  in
  check "unlinked socket probes absent" true
    (Svc.Client.probe sock_path = `Absent);
  (* A socket file a dead daemon left behind: exists, nobody listens. *)
  let stale = Filename.concat dir "stale.sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX stale);
  Unix.close fd;
  check "abandoned socket probes stale" true (Svc.Client.probe stale = `Stale);
  Sys.remove stale;
  Unix.rmdir dir

let test_socket_path_limit () =
  (* Paths at Linux's 107-byte socket limit. The daemon binds a private
     name of up to 9 bytes next to the socket first, so a long basename
     still serves at the limit, while a path over it, or a short
     basename whose directory leaves no room for the private name, fails
     up front and leaves nothing behind. *)
  let limit = Svc.Server.max_socket_path in
  let base = tmp_dir "svclen" in
  let dir_len = limit - 1 - 16 in
  let dir =
    Filename.concat base (String.make (dir_len - String.length base - 1) 'd')
  in
  Unix.mkdir dir 0o755;
  let at_limit = Filename.concat dir (String.make 16 's') in
  check_int "path at the limit" limit (String.length at_limit);
  let probed, _ =
    with_server ~sock:at_limit @@ fun sock -> Svc.Client.probe sock
  in
  check "a 16-byte basename at the limit serves" true (probed = `Live);
  let refused path =
    match
      Svc.Server.run
        {
          Svc.Server.socket_path = path;
          domains = 1;
          queue_depth = 1;
          idle_timeout = None;
          io_timeout = None;
          retry_after_s = 0.05;
          pool = None;
          cache = None;
          paranoid = false;
          request_timeout = None;
          global_timeout = Some 5.0;
          echo = ignore;
        }
    with
    | _ -> false
    | exception Unix.Unix_error (Unix.ENAMETOOLONG, _, _) -> true
  in
  check "one byte over the limit is refused" true
    (refused (Filename.concat dir (String.make 17 's')));
  let tight =
    Filename.concat base (String.make (limit - String.length base - 3) 'd')
  in
  Unix.mkdir tight 0o755;
  check "no room for the private name is refused" true
    (refused (Filename.concat tight "s"));
  check "refused starts create nothing" true
    (Sys.readdir dir = [||] && Sys.readdir tight = [||]);
  Unix.rmdir tight;
  Unix.rmdir dir;
  Unix.rmdir base

let test_stress_overload () =
  (* 4x oversubscription with faults armed: 10 retrying clients, 3
     hostile peers and 3 silent ones against 2 workers and a 2-deep
     queue. Every client must end with a typed outcome, the daemon must
     serve cleanly after the flood, and the budget pool must balance. *)
  let rng = Rng.create 0x57E55L in
  let net = random_network rng ~pis:6 ~gates:40 ~pos:3 in
  let aiger = Aig.Aiger.write net in
  let pool = Obs.Pool.create ~wall_s:120.0 ~conflicts:2_000_000 () in
  let (), outcome =
    with_server ~domains:2 ~queue_depth:2 ~retry_after_s:0.03
      ~io_timeout:1.0 ~pool
    @@ fun sock ->
    (match Obs.Fault.configure "seed=5,svc.drop_conn:0.15" with
    | Ok () -> ()
    | Error e -> Alcotest.failf "bad fault spec: %s" e);
    Fun.protect ~finally:Obs.Fault.reset @@ fun () ->
    let good_client i =
      Domain.spawn (fun () ->
          let policy =
            {
              Svc.Client.retries = 80;
              base_backoff_s = 0.01;
              max_backoff_s = 0.08;
              retry_budget_s = 30.0;
              jitter = 0.8;
            }
          in
          match Svc.Client.connect ~policy sock with
          | Error e -> `Fail (Svc.Client.error_to_string e)
          | Ok c ->
            Fun.protect ~finally:(fun () -> Svc.Client.close c) @@ fun () ->
            (match Svc.Client.request c (request ~id:(100 + i) aiger) with
            | Ok (Proto.R_ok { rsp_id; _ }) ->
              if rsp_id = 100 + i then `Served else `Fail "wrong id echoed"
            | Ok (Proto.R_error { message; _ }) -> `Fail message
            | Ok _ -> `Fail "unexpected response"
            | Error Svc.Client.E_closed -> `Closed (* drop_conn fault *)
            | Error (Svc.Client.E_overloaded _) -> `Shed
            | Error e -> `Fail (Svc.Client.error_to_string e)))
    in
    let hostile_client () =
      Domain.spawn (fun () ->
          (try
             let ic, oc = Unix.open_connection (Unix.ADDR_UNIX sock) in
             Proto.write_frame oc "\x00\xffgarbage{{{";
             (match Proto.read_response ic with
             | Some _ | None -> ()
             | exception Proto.Parse_error _ -> ());
             try Unix.shutdown_connection ic with Unix.Unix_error _ -> ()
           with Unix.Unix_error _ | Sys_error _ -> ());
          `Hostile)
    in
    let slow_client () =
      Domain.spawn (fun () ->
          (try
             let ic, _oc = Unix.open_connection (Unix.ADDR_UNIX sock) in
             Unix.sleepf 0.4;
             try Unix.shutdown_connection ic with Unix.Unix_error _ -> ()
           with Unix.Unix_error _ -> ());
          `Slow)
    in
    let goods = List.init 10 good_client in
    let hostiles = List.init 3 (fun _ -> hostile_client ()) in
    let slows = List.init 3 (fun _ -> slow_client ()) in
    let results = List.map Domain.join goods in
    List.iter (fun d -> ignore (Domain.join d)) hostiles;
    List.iter (fun d -> ignore (Domain.join d)) slows;
    List.iter
      (function
        | `Served | `Closed | `Shed -> ()
        | `Fail m -> Alcotest.failf "client got an untyped outcome: %s" m)
      results;
    check "at least one client won through" true
      (List.exists (fun r -> r = `Served) results);
    (* The flood over: a fresh request serves cleanly. *)
    Obs.Fault.reset ();
    let ic, oc = Unix.open_connection (Unix.ADDR_UNIX sock) in
    (match send_recv oc ic (request ~id:999 aiger) with
    | Some (Proto.R_ok { rsp_id; _ }) -> check_int "post-flood request" 999 rsp_id
    | _ -> Alcotest.fail "daemon did not serve after the flood");
    Unix.shutdown_connection ic
  in
  check "daemon served through the flood" true (outcome.Svc.Server.served >= 2);
  let s = Obs.Pool.stats pool in
  check_int "pool quiescent" 0 s.Obs.Pool.s_inflight;
  (match s.s_conflicts_total with
  | Some total ->
    check_int "conflict conservation" total
      (s.s_conflicts_remaining + s.s_conflicts_consumed)
  | None -> Alcotest.fail "conflict pool must be limited");
  match s.s_wall_total with
  | Some total ->
    check "wall conservation" true
      (Float.abs (total -. (s.s_wall_remaining +. s.s_wall_consumed)) < 1e-6)
  | None -> Alcotest.fail "wall pool must be limited"

(* ---- the bounded cache ---- *)

let mk_key i = Printf.sprintf "%032x" (0xabc000 + i)

let entry_of i = J.Obj [ ("v", J.Int i); ("pad", J.String (String.make 64 'p')) ]

let iter_store_files dir f =
  Array.iter
    (fun sub ->
      let p = Filename.concat dir sub in
      if Sys.is_directory p then
        Array.iter (fun file -> f sub file) (Sys.readdir p))
    (Sys.readdir dir)

let no_litter dir =
  iter_store_files dir (fun sub file ->
      if String.length file >= 5 && String.sub file 0 5 = ".tmp." then
        Alcotest.failf "temp litter: %s/%s" sub file)

let test_cache_lru_bounds () =
  let dir = tmp_dir "svclru" in
  let c = Svc.Cache.open_ ~max_entries:4 dir in
  for i = 0 to 9 do
    Svc.Cache.store c ~key:(mk_key i) (entry_of i)
  done;
  check_int "bounded at 4 entries" 4 (Svc.Cache.entries c);
  let t = Svc.Cache.counters c in
  check_int "evictions counted" 6 t.Svc.Cache.c_evictions;
  check "evicted bytes counted" true (t.c_evicted_bytes > 0);
  (match Svc.Cache.find c ~key:(mk_key 9) with
  | Sweep.Engine.Cache_hit e ->
    check "resident entry intact" true (J.member "v" e = Some (J.Int 9))
  | _ -> Alcotest.fail "youngest entry must be resident");
  (match Svc.Cache.find c ~key:(mk_key 0) with
  | Sweep.Engine.Cache_miss -> ()
  | _ -> Alcotest.fail "oldest entry must have been evicted");
  (* A hit refreshes recency: touch 6, push two more entries — 6
     survives while the untouched 7 and 8 go. *)
  (match Svc.Cache.find c ~key:(mk_key 6) with
  | Sweep.Engine.Cache_hit _ -> ()
  | _ -> Alcotest.fail "entry 6 must be resident");
  Svc.Cache.store c ~key:(mk_key 10) (entry_of 10);
  Svc.Cache.store c ~key:(mk_key 11) (entry_of 11);
  check_int "still bounded" 4 (Svc.Cache.entries c);
  (match Svc.Cache.find c ~key:(mk_key 6) with
  | Sweep.Engine.Cache_hit _ -> ()
  | _ -> Alcotest.fail "touched entry must survive eviction");
  (match Svc.Cache.find c ~key:(mk_key 7) with
  | Sweep.Engine.Cache_miss -> ()
  | _ -> Alcotest.fail "least-recently-used entry must have been evicted");
  check "bytes accounted" true (Svc.Cache.bytes c > 0);
  no_litter dir;
  (* Reopen unbounded: exactly the survivors, intact. *)
  let c2 = Svc.Cache.open_ dir in
  check_int "reopen sees the survivors" 4 (Svc.Cache.entries c2);
  (match Svc.Cache.find c2 ~key:(mk_key 6) with
  | Sweep.Engine.Cache_hit e ->
    check "survivor intact after reopen" true (J.member "v" e = Some (J.Int 6))
  | _ -> Alcotest.fail "survivor must hit after reopen");
  (* Reopen under a tighter bound: open-time eviction shrinks to fit. *)
  let c3 = Svc.Cache.open_ ~max_entries:2 dir in
  check_int "open-time eviction" 2 (Svc.Cache.entries c3)

let test_cache_byte_budget () =
  let dir = tmp_dir "svcbytes" in
  let probe = Svc.Cache.open_ dir in
  Svc.Cache.store probe ~key:(mk_key 0) (entry_of 0);
  let per_entry = Svc.Cache.bytes probe in
  check "entry has a size" true (per_entry > 0);
  let budget = (3 * per_entry) + (per_entry / 2) in
  let c = Svc.Cache.open_ ~max_bytes:budget dir in
  for i = 1 to 7 do
    Svc.Cache.store c ~key:(mk_key i) (entry_of i)
  done;
  check "byte budget holds" true (Svc.Cache.bytes c <= budget);
  check "entries evicted to fit" true (Svc.Cache.entries c <= 3);
  check "cache not emptied" true (Svc.Cache.entries c > 0);
  no_litter dir

let test_cache_evict_race_fault () =
  let dir = tmp_dir "svcrace" in
  (match Obs.Fault.configure "seed=2,cache.evict_race" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bad fault spec: %s" e);
  Fun.protect ~finally:Obs.Fault.reset @@ fun () ->
  let c = Svc.Cache.open_ ~max_entries:2 dir in
  for i = 0 to 5 do
    Svc.Cache.store c ~key:(mk_key i) (entry_of i)
  done;
  check_int "bounded under racing evictions" 2 (Svc.Cache.entries c);
  let t = Svc.Cache.counters c in
  check "evictions recorded" true (t.Svc.Cache.c_evictions >= 4);
  (match Svc.Cache.find c ~key:(mk_key 5) with
  | Sweep.Engine.Cache_hit _ -> ()
  | _ -> Alcotest.fail "resident entry must still hit");
  match Svc.Cache.find c ~key:(mk_key 0) with
  | Sweep.Engine.Cache_miss -> ()
  | _ -> Alcotest.fail "raced-away entry must be a plain miss"

let test_cache_compact () =
  let dir = tmp_dir "svccompact" in
  let c = Svc.Cache.open_ dir in
  for i = 0 to 9 do
    Svc.Cache.store c ~key:(mk_key i) (entry_of i)
  done;
  let bytes_before = Svc.Cache.bytes c in
  (* Plant crash litter: a stale temp file and a corrupted entry. *)
  let key3 = mk_key 3 in
  let sub = Filename.concat dir (String.sub key3 0 2) in
  Out_channel.with_open_bin (Filename.concat sub ".tmp.99999.7") (fun oc ->
      Out_channel.output_string oc "crash leftover");
  Out_channel.with_open_bin (Filename.concat sub (key3 ^ ".json")) (fun oc ->
      Out_channel.output_string oc "not json at all");
  (match Svc.Cache.find c ~key:key3 with
  | Sweep.Engine.Cache_corrupt -> ()
  | _ -> Alcotest.fail "overwritten entry must be detected as corrupt");
  (* Compaction sweeps the temp file, purges the quarantined
     post-mortem, and evicts LRU down to the requested bound. *)
  let s = Svc.Cache.compact ~max_entries:3 c in
  check "tmp swept" true (s.Svc.Cache.k_tmp >= 1);
  check "quarantined purged" true (s.k_quarantined >= 1);
  check "evicted down" true (s.k_evicted >= 1);
  check_int "entries bounded after compact" 3 (Svc.Cache.entries c);
  check "store shrank" true (Svc.Cache.bytes c < bytes_before);
  no_litter dir;
  iter_store_files dir (fun _sub file ->
      if Filename.check_suffix file ".quarantined" then
        Alcotest.failf "quarantined litter: %s" file)

let test_cache_trace_write_failure () =
  (* An eviction traces a line. Under --trace, with stderr a pipe whose
     reader is gone and SIGPIPE ignored (as sweepd runs), that write
     fails: both stores must still return, and the cache lock must not
     stay held, so the next find is served. This case leaves the trace
     enabled, so it runs last. *)
  let dir = tmp_dir "svctrace" in
  let c = Svc.Cache.open_ ~max_entries:1 dir in
  let saved = Unix.dup ~cloexec:true Unix.stderr in
  let rd, wr = Unix.pipe ~cloexec:true () in
  Unix.close rd;
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      Unix.dup2 saved Unix.stderr;
      Unix.close saved;
      Unix.close wr;
      Sys.set_signal Sys.sigpipe sigpipe)
    (fun () ->
      Unix.dup2 wr Unix.stderr;
      Obs.Trace.enable ();
      Svc.Cache.store c ~key:(mk_key 0) (entry_of 0);
      Svc.Cache.store c ~key:(mk_key 1) (entry_of 1));
  check_int "the second store evicted the first" 1
    (Svc.Cache.counters c).Svc.Cache.c_evictions;
  match Svc.Cache.find c ~key:(mk_key 1) with
  | Sweep.Engine.Cache_hit e ->
    check "resident entry served" true (J.member "v" e = Some (J.Int 1))
  | _ -> Alcotest.fail "the resident entry must be served"

let () =
  Alcotest.run "svc"
    [
      ( "proto",
        [
          Alcotest.test_case "frame fd round-trip" `Quick test_frame_fd_roundtrip;
          Alcotest.test_case "hostile frames" `Quick test_frame_truncation;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"request round-trip" ~count:200 arb_request
               prop_request_roundtrip);
          Alcotest.test_case "response codec + hostile requests" `Quick
            test_response_codec;
        ] );
      ( "server",
        [
          Alcotest.test_case "round-trip + isolation" `Slow test_server_roundtrip;
          Alcotest.test_case "drop_conn fault" `Slow test_server_drop_conn_fault;
          Alcotest.test_case "warm cache across requests" `Slow
            test_server_warm_cache;
        ] );
      ( "overload",
        [
          Alcotest.test_case "admission control sheds typed" `Slow
            test_overload_shedding;
          Alcotest.test_case "client retries through the gate" `Slow
            test_client_retry;
          Alcotest.test_case "health report" `Slow test_health;
          Alcotest.test_case "pool exhaustion degrades, books balance" `Slow
            test_pool_exhaustion_degrades;
          Alcotest.test_case "idle timeout" `Slow test_idle_timeout;
          Alcotest.test_case "slow_client fault" `Slow test_slow_client_fault;
          Alcotest.test_case "socket probe live/stale/absent" `Slow test_probe;
          Alcotest.test_case "socket path at the length limit" `Quick
            test_socket_path_limit;
          Alcotest.test_case "4x oversubscription flood" `Slow
            test_stress_overload;
        ] );
      ( "bounded-cache",
        [
          Alcotest.test_case "LRU entry bound + reopen" `Quick
            test_cache_lru_bounds;
          Alcotest.test_case "byte budget" `Quick test_cache_byte_budget;
          Alcotest.test_case "evict_race fault" `Quick
            test_cache_evict_race_fault;
          Alcotest.test_case "compact sweeps, purges, evicts" `Quick
            test_cache_compact;
          Alcotest.test_case "trace write failure keeps the cache usable"
            `Quick test_cache_trace_write_failure;
        ] );
    ]

(* Observability-layer tests: the clock is monotonic wall time (the
   PR-2 bug was CPU time inverting parallel speedups), and the JSON
   printer/parser round-trip — reports must be readable back by any
   consumer. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let qcheck_case ~name ~count arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

(* ---- clock ---- *)

let test_clock_monotonic () =
  let prev = ref (Obs.Clock.now ()) in
  for _ = 1 to 10_000 do
    let t = Obs.Clock.now () in
    if t < !prev then Alcotest.fail "clock went backwards";
    prev := t
  done

let test_clock_spans () =
  let dt, r = Obs.Clock.span (fun () -> 42) in
  check_int "span result" 42 r;
  check "span nonnegative" true (dt >= 0.);
  (* A busy loop must register wall time: sleep-free lower bound via
     repeated clock reads until some time visibly passes. *)
  let dt, () =
    Obs.Clock.span (fun () ->
        let t0 = Obs.Clock.now () in
        while Obs.Clock.now () -. t0 < 0.01 do
          ()
        done)
  in
  check "span sees wall time" true (dt >= 0.01)

let test_clock_wall_not_cpu () =
  (* The defining property vs [Sys.time]: sleeping costs wall time but
     almost no CPU time. 20ms sleep must show up on the wall clock. *)
  let dt, () = Obs.Clock.span (fun () -> Unix.sleepf 0.02) in
  check "sleep registers on wall clock" true (dt >= 0.015)

(* ---- span ---- *)

let busy s =
  let t0 = Obs.Clock.now () in
  while Obs.Clock.now () -. t0 < s do
    ()
  done

let sum_totals sp = List.fold_left (fun acc (_, s) -> acc +. s) 0. (Obs.Span.totals sp)

(* Self times partition the outermost spans: however the spans nest,
   and with a name recurring at several depths, the totals add up to
   the roots' summed duration. *)
let test_span_partition () =
  let sp = Obs.Span.create [ "a"; "b" ] in
  let span name f = Obs.Span.with_ sp name f in
  let r =
    span "root" (fun () ->
        busy 0.001;
        span "a" (fun () ->
            busy 0.002;
            span "b" (fun () -> busy 0.002);
            span "a" (fun () -> span "c" (fun () -> busy 0.001)));
        span "b" (fun () -> busy 0.001);
        7)
  in
  check_int "result" 7 r;
  span "second root" (fun () -> span "a" (fun () -> busy 0.001));
  let totals = Obs.Span.totals sp in
  List.iter
    (fun (k, s) -> if s < 0. then Alcotest.failf "%s: negative self time" k)
    totals;
  let total = Obs.Span.total sp in
  check "total sees the roots" true (total >= 0.008);
  check "b billed its own time" true (List.assoc "b" totals >= 0.003);
  check "a billed only its self time" true
    (List.assoc "a" totals >= 0.003 && List.assoc "a" totals < total -. 0.004);
  if Float.abs (sum_totals sp -. total) > 1e-9 then
    Alcotest.failf "totals sum to %.12f, roots last %.12f" (sum_totals sp)
      total

(* A thunk that raises still ends its span: the span bills its time,
   the exception passes through, and later spans nest correctly. *)
let test_span_raise () =
  let sp = Obs.Span.create [] in
  let span name f = Obs.Span.with_ sp name f in
  span "root" (fun () ->
      match span "boom" (fun () -> busy 0.002; raise Exit) with
      | () -> Alcotest.fail "the exception was swallowed"
      | exception Exit -> span "after" (fun () -> busy 0.001));
  (match span "root" (fun () -> span "deep" (fun () -> raise Not_found)) with
   | () -> Alcotest.fail "the exception was swallowed"
   | exception Not_found -> ());
  let totals = Obs.Span.totals sp in
  check "boom billed" true (List.assoc "boom" totals >= 0.002);
  check "after billed" true (List.assoc "after" totals >= 0.001);
  check "deep closed" true (List.mem_assoc "deep" totals);
  check "both roots counted" true (Obs.Span.total sp >= 0.003);
  if Float.abs (sum_totals sp -. Obs.Span.total sp) > 1e-9 then
    Alcotest.fail "a raising span broke the partition"

let test_span_key_order () =
  let sp = Obs.Span.create [ "x"; "y" ] in
  let keys () = List.map fst (Obs.Span.totals sp) in
  check "declared keys first, at zero" true
    (Obs.Span.totals sp = [ ("x", 0.); ("y", 0.) ]);
  let span name f = Obs.Span.with_ sp name f in
  span "z" (fun () -> span "y" (fun () -> span "w" ignore));
  span "w" (fun () -> span "z" ignore);
  check "then first-opened order" true (keys () = [ "x"; "y"; "z"; "w" ]);
  let more = List.init 20 (Printf.sprintf "k%d") in
  List.iter (fun k -> span k ignore) more;
  check "new names append in order" true
    (keys () = [ "x"; "y"; "z"; "w" ] @ more)

(* Tracing must never fail the traced operation: with stderr a pipe
   whose reader is gone (SIGPIPE ignored, as sweepd runs) and then a
   closed descriptor, every line is dropped quietly. Tracing stays on
   afterwards, so this case runs last. *)
let test_span_trace_failing_stderr () =
  let saved = Unix.dup ~cloexec:true Unix.stderr in
  let rd, wr = Unix.pipe ~cloexec:true () in
  Unix.close rd;
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let sp = Obs.Span.create [ "a" ] in
  Fun.protect
    ~finally:(fun () ->
      Unix.dup2 saved Unix.stderr;
      Unix.close saved;
      Unix.close wr;
      Sys.set_signal Sys.sigpipe sigpipe)
    (fun () ->
      Obs.Span.enable_trace ();
      Unix.dup2 wr Unix.stderr;
      Obs.Span.with_ sp "a" (fun () ->
          Obs.Span.trace "a line to a broken pipe: %d" 1;
          Obs.Span.progress sp "progress to a broken pipe: %s" "ok");
      Unix.close Unix.stderr;
      Obs.Span.trace "a line to a closed descriptor";
      Obs.Span.progress sp "progress to a closed descriptor");
  check "the span still closed" true (Obs.Span.total sp >= 0.)

(* ---- json ---- *)

let sample =
  Obs.Json.(
    Obj
      [
        ("null", Null);
        ("t", Bool true);
        ("f", Bool false);
        ("int", Int (-42));
        ("float", Float 3.5);
        ("tiny", Float 1.0000000000000002);
        ("str", String "line\n\"quoted\"\ttab \\ slash");
        ("list", List [ Int 1; Float 2.5; String "x"; List []; Obj [] ]);
        ("nested", Obj [ ("k", List [ Bool false; Null ]) ]);
      ])

let test_json_roundtrip_sample () =
  let s = Obs.Json.to_string sample in
  (match Obs.Json.of_string s with
   | Ok v -> check "compact round-trip" true (v = sample)
   | Error e -> Alcotest.fail e);
  let s = Obs.Json.to_string ~pretty:true sample in
  match Obs.Json.of_string s with
  | Ok v -> check "pretty round-trip" true (v = sample)
  | Error e -> Alcotest.fail e

let test_json_floats_stay_floats () =
  (* A float that happens to be integral must parse back as Float, not
     Int, or report consumers see the field type flip run to run. *)
  let s = Obs.Json.to_string (Obs.Json.Float 1.) in
  check_str "integral float keeps a dot" "1.0" s;
  (match Obs.Json.of_string s with
   | Ok (Obs.Json.Float 1.) -> ()
   | _ -> Alcotest.fail "1.0 must parse as Float");
  check_str "non-finite becomes null" "null" (Obs.Json.to_string (Obs.Json.Float nan))

let test_json_parser_details () =
  let ok s v =
    match Obs.Json.of_string s with
    | Ok v' -> check ("parse " ^ s) true (v = v')
    | Error e -> Alcotest.fail e
  in
  ok " [1, 2,\t3]\n" (Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Int 2; Obs.Json.Int 3 ]);
  ok {|"aAb"|} (Obs.Json.String "aAb");
  ok {|"é"|} (Obs.Json.String "\xc3\xa9");
  ok "1e3" (Obs.Json.Float 1000.);
  ok "-0.5" (Obs.Json.Float (-0.5));
  List.iter
    (fun bad ->
      match Obs.Json.of_string bad with
      | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" bad
      | Error _ -> ())
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "1 2"; "" ]

let test_json_member () =
  check "member hit" true
    (Obs.Json.member "int" sample = Some (Obs.Json.Int (-42)));
  check "member miss" true (Obs.Json.member "nope" sample = None);
  check "member on non-obj" true (Obs.Json.member "x" Obs.Json.Null = None);
  check "to_float int" true (Obs.Json.to_float (Obs.Json.Int 2) = Some 2.);
  check "to_float float" true (Obs.Json.to_float (Obs.Json.Float 2.5) = Some 2.5);
  check "to_float string" true (Obs.Json.to_float (Obs.Json.String "2") = None)

let test_json_to_file () =
  let path = Filename.temp_file "obs_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Json.to_file path sample;
      let ic = open_in_bin path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Obs.Json.of_string s with
      | Ok v -> check "file round-trip" true (v = sample)
      | Error e -> Alcotest.fail e)

(* ---- budget ---- *)

let test_budget_unlimited () =
  let b = Obs.Budget.unlimited () in
  check "not limited" false (Obs.Budget.is_limited b);
  check "no deadline" true (Obs.Budget.deadline b = None);
  check "no remaining" true (Obs.Budget.remaining_s b = None);
  for _ = 1 to 1000 do
    check "never exhausts" true (Obs.Budget.check b = None)
  done;
  check "check_now too" true
    (Obs.Budget.check_now ~conflicts:max_int ~propagations:max_int b = None);
  check "sticky state empty" true (Obs.Budget.exhausted b = None)

let test_budget_deadline () =
  let b = Obs.Budget.create ~deadline:(Obs.Clock.now () -. 1.0) () in
  check "limited" true (Obs.Budget.is_limited b);
  (match Obs.Budget.remaining_s b with
  | Some r -> check "expired remaining negative" true (r < 0.)
  | None -> Alcotest.fail "deadline budget must report remaining");
  check "first check reads clock" true
    (Obs.Budget.check b = Some Obs.Budget.Deadline);
  (* Sticky: stays exhausted without further clock reads. *)
  check "sticky" true (Obs.Budget.check b = Some Obs.Budget.Deadline);
  check "exhausted accessor" true
    (Obs.Budget.exhausted b = Some Obs.Budget.Deadline);
  (* A generous deadline does not exhaust. *)
  let b2 = Obs.Budget.create ~timeout:3600.0 () in
  check "future deadline ok" true (Obs.Budget.check_now b2 = None);
  match Obs.Budget.deadline b2 with
  | Some d -> check "timeout became absolute" true (d > Obs.Clock.now ())
  | None -> Alcotest.fail "timeout must set a deadline"

let test_budget_stride () =
  (* With a large stride, only every Nth check reads the clock: an
     already-expired deadline is noticed on call 1 (countdown starts at
     zero), and [check_now] forces the read regardless. *)
  let b = Obs.Budget.create ~deadline:(Obs.Clock.now () -. 1.0) ~stride:1000 () in
  check "first strided check notices" true
    (Obs.Budget.check b = Some Obs.Budget.Deadline);
  let b2 = Obs.Budget.create ~deadline:(Obs.Clock.now () +. 3600.) ~stride:1000 () in
  ignore (Obs.Budget.check b2);
  (* Calls 2..1000 are pure countdown — they cannot notice anything, so
     this loop is just exercising the cheap path. *)
  for _ = 2 to 1000 do
    check "cheap path" true (Obs.Budget.check b2 = None)
  done;
  check "forced read" true (Obs.Budget.check_now b2 = None)

let test_budget_counters () =
  let b = Obs.Budget.create ~conflicts:10 ~propagations:100 () in
  check "under caps" true (Obs.Budget.check ~conflicts:9 ~propagations:99 b = None);
  check "conflict cap" true
    (Obs.Budget.check ~conflicts:10 ~propagations:0 b
    = Some Obs.Budget.Conflicts);
  (* Sticky even if later counters are lower. *)
  check "sticky conflicts" true
    (Obs.Budget.check ~conflicts:0 ~propagations:0 b = Some Obs.Budget.Conflicts);
  let b2 = Obs.Budget.create ~propagations:100 () in
  check "prop cap" true
    (Obs.Budget.check ~propagations:100 b2 = Some Obs.Budget.Propagations);
  check_str "reason spellings" "deadline,conflicts,propagations"
    (String.concat ","
       (List.map Obs.Budget.reason_to_string
          [ Obs.Budget.Deadline; Obs.Budget.Conflicts; Obs.Budget.Propagations ]))

let test_budget_charge () =
  (* [charge] takes deltas — unlike [check], whose counters are the
     caller's own cumulative totals — so callers without global
     counters can meter work in increments. *)
  let b = Obs.Budget.create ~conflicts:10 ~propagations:1000 () in
  check "first delta under cap" true (Obs.Budget.charge ~conflicts:4 b = None);
  check "accumulates" true (Obs.Budget.charge ~conflicts:5 b = None);
  check_int "consumed so far" 9 (fst (Obs.Budget.consumed b));
  check "reaching the cap trips" true
    (Obs.Budget.charge ~conflicts:1 b = Some Obs.Budget.Conflicts);
  (* Sticky: a zero delta still reports exhausted. *)
  check "sticky" true (Obs.Budget.charge b = Some Obs.Budget.Conflicts);
  let c, p = Obs.Budget.consumed b in
  check_int "conflicts metered" 10 c;
  check_int "propagations metered" 0 p;
  (* A zero-cap budget is born exhausted — the shape Pool hands out
     when the pool is dry: the very first charge trips it. *)
  let dry = Obs.Budget.create ~conflicts:0 () in
  check "born exhausted" true
    (Obs.Budget.charge dry = Some Obs.Budget.Conflicts);
  let b2 = Obs.Budget.create ~propagations:10 () in
  check "prop deltas" true (Obs.Budget.charge ~propagations:9 b2 = None);
  check "prop trip" true
    (Obs.Budget.charge ~propagations:1 b2 = Some Obs.Budget.Propagations)

(* ---- pool ---- *)

let test_pool_passthrough () =
  (* An unlimited pool leases the request's own caps through
     untouched; lease/release still book inflight and lease counts. *)
  let p = Obs.Pool.create () in
  check "unlimited pool" false (Obs.Pool.is_limited p);
  let l = Obs.Pool.lease ~wall_cap:5.0 ~conflicts_cap:7 p in
  let b = Obs.Pool.budget l in
  check "request caps pass through" true (Obs.Budget.is_limited b);
  (match Obs.Budget.remaining_s b with
  | Some r -> check "wall cap kept" true (r <= 5.0 && r > 4.0)
  | None -> Alcotest.fail "lease budget must carry the wall cap");
  Obs.Pool.release p l;
  let s = Obs.Pool.stats p in
  check_int "no inflight" 0 s.Obs.Pool.s_inflight;
  check_int "one lease granted" 1 s.s_leases

let test_pool_fair_share_and_refund () =
  let p = Obs.Pool.create ~conflicts:100 () in
  (* A solo request takes min(its cap, the whole pool). *)
  let l1 = Obs.Pool.lease ~conflicts_cap:60 p in
  let s = Obs.Pool.stats p in
  check_int "solo lease takes its cap" 40 s.Obs.Pool.s_conflicts_remaining;
  (* A second concurrent lease gets a fair share of what is left:
     min(60, 40 / 2 inflight) = 20. *)
  let l2 = Obs.Pool.lease ~conflicts_cap:60 p in
  let s = Obs.Pool.stats p in
  check_int "fair share deducted" 20 s.s_conflicts_remaining;
  check_int "two inflight" 2 s.s_inflight;
  (* l1 used 10 of its 60: release refunds the unspent 50. *)
  check "charge under lease" true
    (Obs.Budget.charge ~conflicts:10 (Obs.Pool.budget l1) = None);
  Obs.Pool.release p l1;
  let s = Obs.Pool.stats p in
  check_int "refund returned" 70 s.s_conflicts_remaining;
  check_int "consumption booked" 10 s.s_conflicts_consumed;
  (* Idempotent: a second release changes nothing. *)
  Obs.Pool.release p l1;
  let s' = Obs.Pool.stats p in
  check_int "double release is a no-op" 70 s'.s_conflicts_remaining;
  check_int "inflight after double release" 1 s'.s_inflight;
  (* l2 overruns its 20-slice; consumption books at the slice, never
     more, so the books still balance at quiescence. *)
  ignore (Obs.Budget.charge ~conflicts:500 (Obs.Pool.budget l2));
  Obs.Pool.release p l2;
  let s = Obs.Pool.stats p in
  check_int "overrun clamped to the slice" 30 s.s_conflicts_consumed;
  check_int "conservation at quiescence" 100
    (s.s_conflicts_remaining + s.s_conflicts_consumed);
  check_int "quiescent" 0 s.s_inflight

let test_pool_exhausted_sliver () =
  (* A dry pool still grants: a sliver of wall and zero conflicts, so
     the pipeline under it degrades to a proven partial result instead
     of failing the request. *)
  let p = Obs.Pool.create ~wall_s:0.0 ~conflicts:0 ~min_wall_slice:0.01 () in
  let l = Obs.Pool.lease p in
  let b = Obs.Pool.budget l in
  check "limited" true (Obs.Budget.is_limited b);
  check "conflicts born exhausted" true
    (Obs.Budget.charge b = Some Obs.Budget.Conflicts);
  let s = Obs.Pool.stats p in
  check "starved grant counted" true (s.Obs.Pool.s_starved >= 1);
  Obs.Pool.release p l;
  let s = Obs.Pool.stats p in
  check_int "quiescent" 0 s.s_inflight;
  check "wall books never negative" true (s.s_wall_remaining >= 0.0)

let test_pool_stats_json () =
  let p = Obs.Pool.create ~conflicts:5 () in
  let j = Obs.Pool.stats_json p in
  (match Obs.Json.member "conflicts" j with
  | Some c ->
    check "limited flag" true
      (Obs.Json.member "limited" c = Some (Obs.Json.Bool true));
    check "total echoed" true
      (Obs.Json.member "total" c = Some (Obs.Json.Int 5))
  | None -> Alcotest.fail "stats_json carries no conflicts object");
  (match Obs.Json.member "wall_s" j with
  | Some w ->
    check "unlimited wall flagged" true
      (Obs.Json.member "limited" w = Some (Obs.Json.Bool false))
  | None -> Alcotest.fail "stats_json carries no wall_s object");
  check "inflight present" true
    (Obs.Json.member "inflight" j = Some (Obs.Json.Int 0))

(* ---- fault injection ---- *)

(* The test sites get their own names; [configure]/[reset] are global,
   so every test leaves injection disabled. *)
let with_faults spec f =
  (match Obs.Fault.configure spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "configure %S failed: %s" spec e);
  Fun.protect ~finally:Obs.Fault.reset f

let test_fault_dormant () =
  Obs.Fault.reset ();
  let s = Obs.Fault.register "test.dormant" in
  check "disabled by default" false (Obs.Fault.enabled ());
  for _ = 1 to 100 do
    check "never fires" false (Obs.Fault.fires s)
  done;
  check_int "no hits" 0 (Obs.Fault.hits s);
  check_str "truncate is identity" "abc" (Obs.Fault.truncate s "abc")

let test_fault_register_idempotent () =
  let a = Obs.Fault.register "test.idem" in
  let b = Obs.Fault.register "test.idem" in
  check "same site" true (a == b);
  check_str "name" "test.idem" (Obs.Fault.name a)

let test_fault_configure () =
  let s = Obs.Fault.register "test.always" in
  with_faults "seed=7,test.always" (fun () ->
      check "enabled" true (Obs.Fault.enabled ());
      for _ = 1 to 50 do
        check "prob 1 always fires" true (Obs.Fault.fires s)
      done;
      check_int "hits counted" 50 (Obs.Fault.hits s));
  check "reset disarms" false (Obs.Fault.enabled ());
  check "after reset" false (Obs.Fault.fires s)

let test_fault_probability () =
  let s = Obs.Fault.register "test.half" in
  with_faults "seed=42,test.half:0.5" (fun () ->
      let n = 2000 in
      let fired = ref 0 in
      for _ = 1 to n do
        if Obs.Fault.fires s then incr fired
      done;
      check "roughly half fire" true (!fired > 800 && !fired < 1200);
      check_int "hits match" !fired (Obs.Fault.hits s));
  let z = Obs.Fault.register "test.never" in
  with_faults "seed=42,test.never:0.0" (fun () ->
      for _ = 1 to 100 do
        check "prob 0 never fires" false (Obs.Fault.fires z)
      done)

let test_fault_determinism () =
  let s = Obs.Fault.register "test.det" in
  let draw () =
    with_faults "seed=123,test.det:0.5" (fun () ->
        List.init 64 (fun _ -> Obs.Fault.fires s))
  in
  check "same seed, same sequence" true (draw () = draw ())

let test_fault_truncate () =
  let s = Obs.Fault.register "test.trunc" in
  with_faults "seed=5,test.trunc" (fun () ->
      let text = String.init 100 (fun i -> Char.chr (32 + (i mod 90))) in
      for _ = 1 to 50 do
        let t = Obs.Fault.truncate s text in
        check "proper prefix" true (String.length t < String.length text);
        check "is a prefix" true (t = String.sub text 0 (String.length t))
      done;
      check_str "empty input unchanged" "" (Obs.Fault.truncate s ""))

let test_fault_bad_spec () =
  (match Obs.Fault.configure "test.x:1.5" with
  | Ok () -> Alcotest.fail "probability > 1 must be rejected"
  | Error _ -> ());
  (match Obs.Fault.configure "seed=notanint" with
  | Ok () -> Alcotest.fail "bad seed must be rejected"
  | Error _ -> ());
  (match Obs.Fault.configure "wrong=shape" with
  | Ok () -> Alcotest.fail "unknown key must be rejected"
  | Error _ -> ());
  (* A failed configure leaves injection disabled. *)
  check "disabled after error" false (Obs.Fault.enabled ());
  Obs.Fault.reset ()

let test_fault_pending_registration () =
  (* Arming a name before any module registered it must apply when the
     registration happens (env spec parses before library init). *)
  with_faults "test.late" (fun () ->
      let s = Obs.Fault.register "test.late.fresh" in
      check "unrelated site stays dormant" false (Obs.Fault.fires s);
      let late = Obs.Fault.register "test.late" in
      check "pending prob applied" true (Obs.Fault.fires late))

let test_fault_catalog () =
  ignore (Obs.Fault.register "test.cat.a");
  ignore (Obs.Fault.register "test.cat.b");
  let cat = Obs.Fault.catalog () in
  check "contains a" true (List.mem "test.cat.a" cat);
  check "contains b" true (List.mem "test.cat.b" cat);
  check "sorted" true (cat = List.sort compare cat)

(* Random JSON values: printable-ASCII strings plus escapes, finite
   floats, nesting bounded by the size parameter. *)
let arb_json =
  let open QCheck.Gen in
  let str =
    string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 12)
  in
  let leaf =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) int;
        map
          (fun f -> Obs.Json.Float (if Float.is_finite f then f else 0.))
          float;
        map (fun s -> Obs.Json.String s) str;
      ]
  in
  let value =
    sized
    @@ fix (fun self n ->
           if n <= 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Obs.Json.List l) (list_size (int_range 0 4) (self (n / 2))));
                 ( 1,
                   map
                     (fun kvs -> Obs.Json.Obj kvs)
                     (list_size (int_range 0 4) (pair str (self (n / 2)))) );
               ])
  in
  QCheck.make ~print:(fun v -> Obs.Json.to_string ~pretty:true v) value

let prop_json_roundtrip v =
  match Obs.Json.of_string (Obs.Json.to_string v) with
  | Ok v' -> v = v'
  | Error _ -> false

let prop_json_roundtrip_pretty v =
  match Obs.Json.of_string (Obs.Json.to_string ~pretty:true v) with
  | Ok v' -> v = v'
  | Error _ -> false

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [
          Alcotest.test_case "monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "spans" `Quick test_clock_spans;
          Alcotest.test_case "wall not cpu" `Quick test_clock_wall_not_cpu;
        ] );
      ( "budget",
        [
          Alcotest.test_case "unlimited" `Quick test_budget_unlimited;
          Alcotest.test_case "deadline" `Quick test_budget_deadline;
          Alcotest.test_case "stride" `Quick test_budget_stride;
          Alcotest.test_case "counter caps" `Quick test_budget_counters;
          Alcotest.test_case "delta charging" `Quick test_budget_charge;
        ] );
      ( "pool",
        [
          Alcotest.test_case "unlimited passthrough" `Quick
            test_pool_passthrough;
          Alcotest.test_case "fair share + refund + conservation" `Quick
            test_pool_fair_share_and_refund;
          Alcotest.test_case "dry pool grants a sliver" `Quick
            test_pool_exhausted_sliver;
          Alcotest.test_case "stats_json shape" `Quick test_pool_stats_json;
        ] );
      ( "fault",
        [
          Alcotest.test_case "dormant" `Quick test_fault_dormant;
          Alcotest.test_case "register idempotent" `Quick test_fault_register_idempotent;
          Alcotest.test_case "configure" `Quick test_fault_configure;
          Alcotest.test_case "probability" `Quick test_fault_probability;
          Alcotest.test_case "determinism" `Quick test_fault_determinism;
          Alcotest.test_case "truncate" `Quick test_fault_truncate;
          Alcotest.test_case "bad spec" `Quick test_fault_bad_spec;
          Alcotest.test_case "pending registration" `Quick test_fault_pending_registration;
          Alcotest.test_case "catalog" `Quick test_fault_catalog;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip sample" `Quick test_json_roundtrip_sample;
          Alcotest.test_case "floats stay floats" `Quick test_json_floats_stay_floats;
          Alcotest.test_case "parser details" `Quick test_json_parser_details;
          Alcotest.test_case "member/to_float" `Quick test_json_member;
          Alcotest.test_case "to_file" `Quick test_json_to_file;
          qcheck_case ~name:"qcheck round-trip compact" ~count:500 arb_json
            prop_json_roundtrip;
          qcheck_case ~name:"qcheck round-trip pretty" ~count:500 arb_json
            prop_json_roundtrip_pretty;
        ] );
      ( "span",
        [
          Alcotest.test_case "self times partition the roots" `Quick
            test_span_partition;
          Alcotest.test_case "a raising thunk bills its span" `Quick
            test_span_raise;
          Alcotest.test_case "key order is stable" `Quick test_span_key_order;
          Alcotest.test_case "tracing with a failing stderr never raises"
            `Quick test_span_trace_failing_stderr;
        ] );
    ]

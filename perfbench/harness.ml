(* Benchmark harness: runs one workload over the inputs make_inputs.exe wrote.

     harness.exe WORKLOAD SEED INPUT_DIR SECONDS TRACE SWEEPD_EXE TRACE_FILE
     harness.exe setup WORKLOAD INPUT_DIR

   Run it from a scratch directory of its own: outputs, the daemon's
   socket and its cache directories are created there. It prints one
   JSON line — correct / attempted / failed plus the end-to-end metrics,
   or with TRACE=1 the per-layer metrics, and then also writes the
   spans to TRACE_FILE — and exits 1 if any output check failed. The
   second form runs one in-process set-up and prints its time and layer
   tally; the first form starts it for its set-up samples.

   Every workload times whole passes over its inputs, at least two,
   until the body time is as near SECONDS as whole passes get, then
   checks every output outside the timed windows. A sweepd-cache pass is
   a warm session; the cold session that fills the cache is its untimed
   set-up. Only public entry points are called, with default optional
   arguments, and the engine's figures are read by key from its JSON
   report. *)

module A = Aig.Network
module J = Obs.Json

let now = Unix.gettimeofday

(* ---- statistics ---- *)

(* Linear interpolation between closest ranks. *)
let quantile q l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let ratio a b = if b > 0. then a /. b else 0.

(* Named sums: layer times, engine counters, cache counters. *)
let tally : (string, float) Hashtbl.t = Hashtbl.create 64
let get k = Option.value ~default:0. (Hashtbl.find_opt tally k)
let add k v = Hashtbl.replace tally k (get k +. v)

let in_body = ref false

(* A call into a layer: a span in traced runs, and its wall time summed
   under the span's name in every run (and under "body.layers_s" when
   it is made inside a timed pass). *)
let layer ?op name f =
  let t0 = now () in
  let r = Span.with_ ?op name f in
  let dt = now () -. t0 in
  add (name ^ "_s") dt;
  if !in_body then add "body.layers_s" dt;
  r

(* ---- checks ---- *)

let failed = ref 0

let check ok what =
  if not ok then begin
    incr failed;
    Printf.eprintf "harness: check failed: %s\n%!" what
  end

(* ---- inputs, processes ---- *)

let manifest dir =
  In_channel.with_open_text (Filename.concat dir "manifest.txt")
    In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")
  |> List.map (fun l ->
         match String.split_on_char ' ' l with
         | name :: files -> (name, List.map (Filename.concat dir) files)
         | [] -> assert false)

(* VmHWM (peak resident set) of a process, in MB. *)
let vmhwm_mb pid =
  let status = In_channel.with_open_text ("/proc/" ^ pid ^ "/status") In_channel.input_all in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

let set_ups = 9

(* Set-up samples. The harness's own set-up is the first; the others run
   in fresh processes of this executable in set-up mode, one before each
   following pass and any still owed after the last pass, so they sample
   the machine (whose speed drifts over tens of seconds) at several
   points. Every sample thus starts as a fresh flow or table1 process
   does: new heap, empty process-wide caches such as the kernel's
   cascade cache. *)
type setup = { workload : string; inputs : string; mutable times : float list }

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let first_setup ~workload ~inputs build =
  let state, dt = timed (fun () -> Span.with_ "setup" build) in
  ({ workload; inputs; times = [ dt ] }, state)

(* One sample in a child process; its layer tally joins this one's. *)
let sample s =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "setup"; s.workload; s.inputs |] in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  if Unix.close_process_in ic <> Unix.WEXITED 0 then failwith "set-up process failed";
  List.iter
    (fun l ->
      if l <> "" then
        Scanf.sscanf l "%s %f" (fun k v ->
            if k = "setup_s" then s.times <- v :: s.times else add k v))
    lines

let setup_between s p = if p > 0 && List.length s.times < set_ups then sample s

let setup_median s =
  while List.length s.times < set_ups do
    sample s
  done;
  median s.times

(* Whole passes, at least two, until the body time is the nearest a
   whole number of passes comes to [seconds]: another pass runs only
   while half a median pass still fits, so a run measures [seconds]
   give or take half a pass. [before p] runs untimed ahead of pass [p];
   every pass starts from a compacted heap, so none pays for another's
   garbage. [pass p] returns the pass's wall time. *)
let run_passes ~before ~seconds pass =
  let rec go p walls total =
    if p >= 2 && total +. (median walls /. 2.) >= seconds then List.rev walls
    else begin
      before p;
      Gc.compact ();
      in_body := true;
      let dt = Span.with_ "pass" (fun () -> pass p) in
      in_body := false;
      go (p + 1) (dt :: walls) (total +. dt)
    end
  in
  go 0 [] 0.

(* ---- reading the engine's JSON report by key ---- *)

let field path j =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path

let num path j =
  match Option.bind (field path j) J.to_float with
  | Some v -> v
  | None -> failwith ("report has no number at " ^ String.concat "." path)

let str path j =
  match field path j with
  | Some (J.String s) -> s
  | _ -> failwith ("report has no string at " ^ String.concat "." path)

let phases = [ "sim"; "plan_compile"; "guided"; "resim"; "window"; "sat" ]

(* Per-layer names read from a [Sweep.Stats.to_json] object. *)
let engine_keys =
  List.map (fun p -> ("sweep." ^ p ^ "_s", [ "phases_s"; p ])) phases
  @ [
      ("sweep.sat_calls", [ "counters"; "total_sat_calls" ]);
      ("sweep.sat_sat", [ "counters"; "sat_sat" ]);
      ("sweep.merges", [ "counters"; "merges" ]);
      ("sweep.window_merges", [ "counters"; "window_merges" ]);
      ("sweep.ce_patterns", [ "counters"; "ce_patterns" ]);
      ("sat.propagations", [ "sat_solver"; "propagations" ]);
      ("sat.conflicts", [ "sat_solver"; "conflicts" ]);
      ("sat.decisions", [ "sat_solver"; "decisions" ]);
      ("drup.certified_unsat", [ "counters"; "certified_unsat" ]);
      ("drup.certified_models", [ "counters"; "certified_models" ]);
      ("drup.rejected", [ "counters"; "certificate_rejected" ]);
      ("cache.rejected", [ "counters"; "cache_rejected" ]);
    ]

let add_engine ?(prefix = "") stats =
  List.iter (fun (k, path) -> add (prefix ^ k) (num path stats)) engine_keys;
  check (J.member "budget_exhausted" stats = Some J.Null) "sweep ran out of budget"

(* ---- per-layer metrics ---- *)

(* Names and units, in the order BENCHMARK.json lists them. Every
   workload prints every name; a layer a workload does not call reads 0. *)
let engine_layer =
  List.map
    (fun (k, _) ->
      (k, if String.ends_with ~suffix:"_s" k then "s" else "count"))
    (List.filter (fun (k, _) -> k <> "cache.rejected") engine_keys)
  @ [
      ("sweep.call_s", "s");
      ("sweep.unattributed_s", "s");
      ("sweep.false_candidate_ratio", "ratio");
      ("sat.props_per_s", "1/s");
    ]

let cache_layer =
  [
    ("cache.hits", "count");
    ("cache.misses", "count");
    ("cache.stores", "count");
    ("cache.rejected", "count");
    ("cache.entries", "count");
    ("cache.bytes", "bytes");
  ]

let per_layer_names =
  [
    ("aig.read_s", "s");
    ("aig.write_s", "s");
    ("aig.input_ands", "count");
    ("klut.read_s", "s");
    ("klut.input_luts", "count");
    ("sim.compile_s", "s");
    ("sim.cascade_hits", "count");
    ("sim.cascade_misses", "count");
    ("sim.cascade_evictions", "count");
    ("sim.exec_aig_s", "s");
    ("sim.exec_lut_s", "s");
    ("sim.node_words", "count");
    ("sim.node_words_per_s", "1/s");
  ]
  @ engine_layer
  @ [
      ("svc.launch_cold_s", "s");
      ("svc.launch_warm_s", "s");
      ("svc.rtt_s", "s");
      ("svc.server_s", "s");
      ("svc.overhead_s", "s");
      ("svc.retries", "count");
      ("svc.shed", "count");
    ]
  @ cache_layer
  @ [ ("cache.warm_hit_ratio", "ratio"); ("cold.session_s", "s"); ("warm.session_s", "s") ]
  @ List.concat_map
      (fun session ->
        List.map (fun (k, u) -> (session ^ "." ^ k, u)) (engine_layer @ cache_layer))
      [ "cold"; "warm" ]
  @ [
      ("cec.check_s", "s");
      ("trace.wall_s", "s");
      ("trace.unattributed_s", "s");
      ("trace.spans", "count");
    ]

(* Layer times and counts in the tally are sums over the run; set-up
   layers are reported per set-up, the rest per pass. sweepd-cache sums
   its figures per session under "cold." and "warm." and counts its
   sessions in "cold.sessions" and "warm.sessions": a prefixed figure
   is reported per session of its kind, and the unprefixed one as a
   cold session's plus a warm one's. *)
let per_layer ~passes ~walls =
  let per_pass k =
    match String.index_opt k '.' with
    | Some i when List.mem (String.sub k 0 i) [ "cold"; "warm" ] ->
      ratio (get k) (get (String.sub k 0 i ^ ".sessions"))
    | _ when (not (Hashtbl.mem tally k)) && Hashtbl.mem tally ("cold." ^ k) ->
      ratio (get ("cold." ^ k)) (get "cold.sessions")
      +. ratio (get ("warm." ^ k)) (get "warm.sessions")
    | _ -> get k /. float_of_int passes
  in
  let per_setup k = get k /. float_of_int set_ups in
  let derived prefix =
    let g k = per_pass (prefix ^ k) in
    let call = g "sweep.call_s" in
    [
      ( prefix ^ "sweep.unattributed_s",
        if call = 0. then 0.
        else call -. List.fold_left (fun acc p -> acc +. g ("sweep." ^ p ^ "_s")) 0. phases
      );
      (prefix ^ "sweep.false_candidate_ratio", ratio (g "sweep.sat_sat") (g "sweep.sat_calls"));
      (prefix ^ "sat.props_per_s", ratio (g "sat.propagations") (g "sweep.sat_s"));
    ]
  in
  let mean_wall = List.fold_left ( +. ) 0. walls /. float_of_int passes in
  let exec = per_pass "sim.exec_aig_s" +. per_pass "sim.exec_lut_s" in
  let special =
    [
      ("aig.read_s", per_setup "aig.read_s");
      ("klut.read_s", per_setup "klut.read_s");
      ("sim.compile_s", per_setup "sim.compile_s");
      ("aig.input_ands", get "aig.input_ands");
      ("klut.input_luts", get "klut.input_luts");
      ("sim.cascade_hits", per_setup "sim.cascade_hits");
      ("sim.cascade_misses", per_setup "sim.cascade_misses");
      ("sim.cascade_evictions", per_setup "sim.cascade_evictions");
      ("sim.node_words_per_s", ratio (per_pass "sim.node_words") exec);
      ("svc.launch_cold_s", get "svc.launch_cold_s");
      ("svc.launch_warm_s", get "svc.launch_warm_s");
      ("svc.overhead_s", per_pass "svc.rtt_s" -. per_pass "svc.server_s");
      ("svc.retries", get "svc.retries");
      ("svc.shed", get "svc.shed");
      ("cache.entries", per_pass "warm.cache.entries");
      ("cache.bytes", per_pass "warm.cache.bytes");
      ("cache.warm_hit_ratio", ratio (get "warm.cache.hits") (get "warm.cache.hits" +. get "warm.cache.misses"));
      ("cec.check_s", get "cec.check_s");
      ("trace.wall_s", median walls);
      ( "trace.unattributed_s",
        mean_wall -. per_pass "body.layers_s" );
      ("trace.spans", float_of_int (List.length (Span.finished ())));
    ]
    @ derived "" @ derived "cold." @ derived "warm."
  in
  List.map
    (fun (name, unit_) ->
      let v = match List.assoc_opt name special with Some v -> v | None -> per_pass name in
      (name, unit_, v))
    per_layer_names

(* ---- workloads ---- *)

(* What a workload hands back for the result line. *)
type outcome = {
  setup_s : float;
  walls : float list;  (* one per pass *)
  lat : float list;  (* operation latencies *)
  rss_mb : float;
  result_ands : int;
  attempted : int;
}

(* sweep-stp set-up: read the batch of AIGER files. *)
let read_batch inputs =
  List.map
    (fun (name, paths) -> (name, layer "aig.read" (fun () -> Aig.Aiger.read_file (List.hd paths))))
    (manifest inputs)

(* sweep-stp: sweep each circuit of the batch with the STP engine and
   write the result; repeat the batch. *)
let sweep_stp ~inputs ~seconds =
  let s, nets = first_setup ~workload:"sweep-stp" ~inputs (fun () -> read_batch inputs) in
  List.iter (fun (_, net) -> add "aig.input_ands" (float_of_int (A.num_ands net))) nets;
  Sys.mkdir "out" 0o755;
  let out name = Filename.concat "out" (name ^ ".aag") in
  let n = List.length nets in
  let first = Hashtbl.create n in
  let lat = ref [] in
  let pass p =
    let t0 = now () in
    List.iteri
      (fun i (name, net) ->
        let t1 = now () in
        Span.with_ ~op:((p * n) + i) "op" (fun () ->
            let swept, st = layer "sweep.call" (fun () -> Sweep.Stp_sweep.sweep net) in
            let stats = Sweep.Stats.to_json st in
            Span.annotate_last [ ("report", stats) ];
            add_engine stats;
            layer "aig.write" (fun () -> Aig.Aiger.write_file (out name) swept));
        lat := (now () -. t1) :: !lat)
      nets;
    let wall = now () -. t0 in
    (* Determinism: every pass writes the same bytes as the first. *)
    List.iter
      (fun (name, _) ->
        let d = Digest.file (out name) in
        match Hashtbl.find_opt first name with
        | None -> Hashtbl.add first name d
        | Some d0 -> check (d = d0) (name ^ ": output differs between passes"))
      nets;
    wall
  in
  let walls = run_passes ~before:(setup_between s) ~seconds pass in
  let rss_mb = vmhwm_mb "self" in
  let setup_s = setup_median s in
  let result_ands =
    List.fold_left
      (fun acc (name, net) ->
        let swept = Aig.Aiger.read_file (out name) in
        let v = layer "cec.check" (fun () -> Sweep.Cec.check ~certify:true net swept) in
        check (v = Sweep.Cec.Equivalent) (name ^ ": swept output not equivalent");
        acc + A.num_ands swept)
      0 nets
  in
  {
    setup_s;
    walls;
    lat = !lat;
    rss_mb;
    result_ands;
    attempted = List.length !lat;
  }

(* Plain word-parallel AIG evaluation, independent of Sim.Kernel: the
   oracle the kernel's PO rows are checked against. *)
let reference_pos net pats =
  let nw = Sim.Patterns.num_words pats in
  let np = Sim.Patterns.num_patterns pats in
  let v = Array.make (A.num_nodes net) [||] in
  let lit_word l w =
    let x = v.(Aig.Lit.node l).(w) in
    if Aig.Lit.is_compl l then x lxor 0xFFFFFFFF else x
  in
  A.iter_nodes net (fun nd ->
      v.(nd) <-
        (match A.kind net nd with
        | A.Const -> Array.make nw 0
        | A.Pi i -> Array.init nw (fun w -> Sim.Patterns.word pats ~pi:i w)
        | A.And ->
          let f0 = A.fanin0 net nd and f1 = A.fanin1 net nd in
          Array.init nw (fun w -> lit_word f0 w land lit_word f1 w)));
  Array.map
    (fun l ->
      let row = Array.init nw (lit_word l) in
      Sim.Signature.num_patterns_mask np row;
      row)
    (A.pos net)

let batches_per_net = 8
let patterns_per_batch = 4096

(* sim-kernel set-up: read each network and its 6-LUT mapping and
   compile the AIG plan and the STP LUT plan. The set-up runs first in
   its process, so the shared cascade cache's counters are its own. *)
let compile_nets inputs =
  let nets =
    Array.of_list
      (List.map
         (fun (_, paths) ->
           match paths with
           | [ aag; blif ] ->
             let aig = layer "aig.read" (fun () -> Aig.Aiger.read_file aag) in
             let lut = layer "klut.read" (fun () -> Klut.Blif.read_file blif) in
             let aig_plan = layer "sim.compile" (fun () -> Sim.Kernel.compile_aig aig) in
             let lut_plan = layer "sim.compile" (fun () -> Sim.Kernel.compile_klut ~style:`Stp lut) in
             (aig, lut, aig_plan, lut_plan)
           | _ -> failwith "sim-kernel manifest wants an AIGER and a BLIF file")
         (manifest inputs))
  in
  let cache = Sim.Kernel.Cache.shared () in
  add "sim.cascade_hits" (float_of_int (Sim.Kernel.Cache.hits cache));
  add "sim.cascade_misses" (float_of_int (Sim.Kernel.Cache.misses cache));
  add "sim.cascade_evictions" (float_of_int (Sim.Kernel.Cache.evictions cache));
  nets

(* sim-kernel: push seeded pattern batches through both plans of every
   network. *)
let sim_kernel ~seed ~inputs ~seconds =
  let s, nets = first_setup ~workload:"sim-kernel" ~inputs (fun () -> compile_nets inputs) in
  let rng = Sutil.Rng.create (Int64.of_string seed) in
  let batches =
    Array.map
      (fun (aig, lut, _, _) ->
        add "aig.input_ands" (float_of_int (A.num_ands aig));
        add "klut.input_luts" (float_of_int (Klut.Network.num_luts lut));
        Array.init batches_per_net (fun _ ->
            Sim.Patterns.random ~seed:(Sutil.Rng.int64 rng) ~num_pis:(A.num_pis aig)
              ~num_patterns:patterns_per_batch))
      nets
  in
  let aig_rows tbl aig np =
    Array.map (fun l -> Sim.Bitwise.po_signature tbl ~num_patterns:np ~lit:l) (A.pos aig)
  in
  let lut_rows tbl lut np =
    Array.init (Klut.Network.num_pos lut) (fun i ->
        let node, compl = Klut.Network.po lut i in
        if compl then Sim.Signature.complement_of ~num_patterns:np tbl.(node)
        else Array.copy tbl.(node))
  in
  (* PO rows of the first pass, per (network, batch): AIG plan, LUT plan. *)
  let first = Hashtbl.create 64 in
  let lat = ref [] in
  let pass p =
    let t0 = now () in
    Array.iteri
      (fun i (aig, lut, ap, lp) ->
        Array.iteri
          (fun b pats ->
            let np = Sim.Patterns.num_patterns pats in
            let words = float_of_int (Sim.Patterns.num_words pats) in
            let t1 = now () in
            let ta, tl =
              Span.with_ ~op:((((p * Array.length nets) + i) * batches_per_net) + b) "op"
                (fun () ->
                  ( layer "sim.exec_aig" (fun () -> Sim.Kernel.execute ap pats),
                    layer "sim.exec_lut" (fun () -> Sim.Kernel.execute lp pats) ))
            in
            lat := (now () -. t1) :: !lat;
            add "sim.node_words"
              (words *. float_of_int (Sim.Kernel.num_instructions ap + Sim.Kernel.num_instructions lp));
            let rows = (aig_rows ta aig np, lut_rows tl lut np) in
            match Hashtbl.find_opt first (i, b) with
            | None -> Hashtbl.add first (i, b) rows
            | Some r0 -> check (rows = r0) (Printf.sprintf "net %d batch %d: PO rows differ between passes" i b))
          batches.(i))
      nets;
    now () -. t0
  in
  let walls = run_passes ~before:(setup_between s) ~seconds pass in
  let rss_mb = vmhwm_mb "self" in
  let setup_s = setup_median s in
  Array.iteri
    (fun i (aig, _, _, _) ->
      Array.iteri
        (fun b pats ->
          let expect = layer "cec.check" (fun () -> reference_pos aig pats) in
          let rows_aig, rows_lut = Hashtbl.find first (i, b) in
          check (rows_aig = expect) (Printf.sprintf "net %d batch %d: AIG plan PO rows wrong" i b);
          check (rows_lut = expect) (Printf.sprintf "net %d batch %d: LUT plan PO rows wrong" i b))
        batches.(i))
    nets;
  {
    setup_s;
    walls;
    lat = !lat;
    rss_mb;
    result_ands = Array.fold_left (fun acc (aig, _, _, _) -> acc + A.num_ands aig) 0 nets;
    attempted = List.length !lat;
  }

(* ---- the daemon ---- *)

let socket = "sweepd.sock"

type daemon = { pid : int; out : in_channel }

let live : int list ref = ref []

(* A failed run must not leave a daemon behind. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Launch until the daemon prints its listening line — readiness comes
   from the daemon itself, not from polling the socket. *)
let launch ~sweepd ~cache_dir ~warm =
  let name = if warm then "svc.launch_warm" else "svc.launch_cold" in
  Span.with_ name (fun () ->
      let t0 = now () in
      let r, w = Unix.pipe ~cloexec:true () in
      let pid =
        Unix.create_process sweepd
          [| sweepd; "--socket"; socket; "--cache"; cache_dir; "--paranoid"; "--domains"; "1" |]
          Unix.stdin w Unix.stderr
      in
      Unix.close w;
      live := pid :: !live;
      let out = Unix.in_channel_of_descr r in
      let rec ready () =
        match input_line out with
        | l when String.starts_with ~prefix:"sweepd: listening" l -> ()
        | _ -> ready ()
        | exception End_of_file -> failwith "sweepd exited before listening"
      in
      ready ();
      ({ pid; out }, now () -. t0))

(* SIGTERM drain: the daemon must exit 0 and remove its socket. Returns
   its peak RSS (read before the signal) and its "drained:" tallies. *)
let stop d =
  let rss = vmhwm_mb (string_of_int d.pid) in
  Unix.kill d.pid Sys.sigterm;
  let lines = In_channel.input_all d.out |> String.split_on_char '\n' in
  close_in d.out;
  let _, status = Unix.waitpid [] d.pid in
  live := List.filter (( <> ) d.pid) !live;
  check (status = Unix.WEXITED 0) "sweepd did not exit 0 on SIGTERM";
  check (not (Sys.file_exists socket)) "sweepd left its socket behind";
  let drained =
    List.find_map
      (fun l ->
        try
          Some
            (Scanf.sscanf l "sweepd: drained: %d served, %d errors, %d dropped, %d shed"
               (fun served errors dropped shed -> (served, errors, dropped, shed)))
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
      lines
  in
  (rss, drained)

let script = "sweep -e stp"

let sweep_pass report =
  match field [ "passes" ] report with
  | Some (J.List (p :: _)) -> p
  | _ -> failwith "report has no passes"

(* One closed-loop session over one client connection: each request is
   sent when the previous response has arrived. Its figures are summed
   under [prefix] ("cold." or "warm."). *)
let session ~prefix ~op0 reqs =
  let c =
    match Svc.Client.connect socket with
    | Ok c -> c
    | Error e -> failwith ("connect: " ^ Svc.Client.error_to_string e)
  in
  let t0 = now () in
  let responses =
    List.mapi
      (fun i (_, aiger, _) ->
        let t1 = now () in
        let r =
          Span.with_ ~op:(op0 + i) "op" (fun () ->
              let r =
                layer "svc.request" (fun () ->
                    Svc.Client.request c
                      {
                        Svc.Proto.req_id = i;
                        script;
                        aiger;
                        req_timeout = None;
                        req_verify = false;
                        req_certify = true;
                      })
              in
              (match r with
              | Ok (Svc.Proto.R_ok { report; _ }) ->
                Span.annotate_last
                  [ ("server_s", J.Float (num [ "wall_s" ] report)); ("pass", sweep_pass report) ]
              | _ -> ());
              r)
        in
        let rtt = now () -. t1 in
        add (prefix ^ "svc.rtt_s") rtt;
        match r with
        | Ok (Svc.Proto.R_ok { report; _ }) ->
          let sweep = sweep_pass report in
          add (prefix ^ "svc.server_s") (num [ "wall_s" ] report);
          add (prefix ^ "sweep.call_s") (num [ "wall_s" ] sweep);
          add_engine ~prefix (Option.get (field [ "stats" ] sweep));
          (rtt, Some report)
        | Ok _ | Error _ ->
          check false (Printf.sprintf "%srequest %d: no ok response" prefix i);
          (rtt, None))
      reqs
  in
  let wall = now () -. t0 in
  add (prefix ^ "session_s") wall;
  add (prefix ^ "sessions") 1.;
  add "svc.retries" (float_of_int (Svc.Client.retries_performed c));
  Svc.Client.close c;
  (* The cache counters are the daemon's lifetime totals: one daemon
     per session, so the last response holds the session's. *)
  (match List.rev responses with
  | (_, Some last) :: _ ->
    List.iter
      (fun k -> add (prefix ^ "cache." ^ k) (num [ "cache"; k ] last))
      [ "hits"; "misses"; "stores"; "entries"; "bytes" ]
  | _ -> ());
  (wall, responses)

(* sweepd-cache. Set-up, untimed: a cold session on an empty cache fills
   it and the daemon is drained with SIGTERM. Each pass restarts the
   daemon on the persisted cache and times a warm session: the same
   requests again, answered from the cache. *)
let sweepd_cache ~sweepd ~inputs ~seconds =
  let reqs =
    List.map
      (fun (name, paths) ->
        let file = List.hd paths in
        (name, In_channel.with_open_bin file In_channel.input_all, Aig.Aiger.read_file file))
      (manifest inputs)
  in
  let n = List.length reqs in
  let launches = Hashtbl.create 2 in
  let launch_noted ~cache_dir ~warm =
    let d, dt = launch ~sweepd ~cache_dir ~warm in
    Hashtbl.replace launches warm (dt :: Option.value ~default:[] (Hashtbl.find_opt launches warm));
    d
  in
  let stop_checked ~served d =
    let rss, drained = stop d in
    (match drained with
    | Some (s, errors, dropped, shed) ->
      check (s = served && errors = 0 && dropped = 0) "sweepd drain tallies";
      add "svc.shed" (float_of_int shed)
    | None -> check false "sweepd printed no drained line");
    rss
  in
  let cache_dir = "cache" in
  let cold_rss, cold =
    Span.with_ "setup" (fun () ->
        let d = launch_noted ~cache_dir ~warm:false in
        let _, responses = session ~prefix:"cold." ~op0:0 reqs in
        (stop_checked ~served:n d, responses))
  in
  let result r = Option.map (str [ "result_aiger" ]) r in
  let lat = ref [] and rss = ref [] and warm = ref None in
  let before _ = warm := Some (launch_noted ~cache_dir ~warm:true) in
  let pass p =
    let wall, responses = session ~prefix:"warm." ~op0:((p + 1) * n) reqs in
    rss := stop_checked ~served:n (Option.get !warm) :: !rss;
    lat := List.map fst responses @ !lat;
    (* The output must not depend on cache warmth. *)
    List.iteri
      (fun i ((_, c), (_, w)) ->
        check (result c <> None && result c = result w)
          (Printf.sprintf "request %d: warm result differs from cold" i))
      (List.combine cold responses);
    wall
  in
  let walls = run_passes ~before ~seconds pass in
  (* More launches, outside the passes, so each launch time is a median
     of [set_ups]: cold ones on empty caches, warm ones on the run's. *)
  for k = 1 to set_ups - 1 do
    let d = launch_noted ~cache_dir:(Printf.sprintf "cache-launch%d" k) ~warm:false in
    ignore (stop_checked ~served:0 d)
  done;
  for _ = List.length walls to set_ups - 1 do
    ignore (stop_checked ~served:0 (launch_noted ~cache_dir ~warm:true))
  done;
  let launch_s warm = median (Hashtbl.find launches warm) in
  add "svc.launch_cold_s" (launch_s false);
  add "svc.launch_warm_s" (launch_s true);
  List.iter (fun (_, _, net) -> add "aig.input_ands" (float_of_int (A.num_ands net))) reqs;
  let result_ands =
    List.fold_left2
      (fun acc (name, _, net) (_, r) ->
        match result r with
        | Some text ->
          let swept = Aig.Aiger.read text in
          let v = layer "cec.check" (fun () -> Sweep.Cec.check ~certify:true net swept) in
          check (v = Sweep.Cec.Equivalent) (name ^ ": swept output not equivalent");
          acc + A.num_ands swept
        | None -> acc)
      0 reqs cold
  in
  let total k = get ("cold." ^ k) +. get ("warm." ^ k) in
  check (total "drup.rejected" = 0.) "DRUP rejected a certificate";
  check (total "cache.rejected" = 0.) "the cache rejected an entry";
  check (get "cold.cache.stores" > 0.) "the cold session stored nothing";
  check (get "warm.cache.hits" > 0.) "the warm sessions hit nothing";
  {
    setup_s = launch_s false +. launch_s true;
    walls;
    lat = !lat;
    rss_mb = Float.max cold_rss (median !rss);
    result_ands;
    attempted = n * (1 + List.length walls);
  }

(* ---- main ---- *)

let () =
  match Array.to_list Sys.argv with
  | [ _; workload; seed; inputs; seconds; trace; sweepd; trace_file ] ->
    let seconds = float_of_string seconds and traced = trace = "1" in
    if traced then Span.enable ();
    let t0 = now () in
    let o =
      Span.with_ "run" (fun () ->
          match workload with
          | "sweep-stp" -> sweep_stp ~inputs ~seconds
          | "sim-kernel" -> sim_kernel ~seed ~inputs ~seconds
          | "sweepd-cache" -> sweepd_cache ~sweepd ~inputs ~seconds
          | w -> failwith ("unknown workload " ^ w))
    in
    let passes = List.length o.walls in
    let metrics =
      if traced then begin
        J.to_file trace_file (Span.to_chrome ~origin:t0);
        per_layer ~passes ~walls:o.walls
      end
      else
        [
          ("setup_s", "s", o.setup_s);
          ("wall_s", "s", median o.walls);
          ("peak_rss_mb", "MB", o.rss_mb);
          ("result_ands", "ANDs", float_of_int o.result_ands);
          ("op_p90_s", "s", quantile 0.9 o.lat);
        ]
    in
    print_endline
      (J.to_string
         (J.Obj
            [
              ("correct", J.Bool (!failed = 0));
              ("attempted", J.Int o.attempted);
              ("failed", J.Int !failed);
              ( "metrics",
                J.Obj
                  (List.map
                     (fun (name, unit_, v) ->
                       (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit_) ]))
                     metrics) );
            ]));
    exit (if !failed = 0 then 0 else 1)
  | [ _; "setup"; workload; inputs ] ->
    let (), dt =
      timed (fun () ->
          match workload with
          | "sweep-stp" -> ignore (Sys.opaque_identity (read_batch inputs))
          | "sim-kernel" -> ignore (Sys.opaque_identity (compile_nets inputs))
          | w -> failwith ("no set-up mode for " ^ w))
    in
    Printf.printf "setup_s %.17g\n" dt;
    Hashtbl.iter (Printf.printf "%s %.17g\n") tally
  | _ ->
    prerr_endline
      "usage: harness.exe WORKLOAD SEED INPUT_DIR SECONDS TRACE SWEEPD_EXE TRACE_FILE\n\
      \       harness.exe setup WORKLOAD INPUT_DIR";
    exit 2

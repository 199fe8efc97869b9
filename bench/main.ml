(* Bechamel micro-benchmarks: one group per paper table plus ablation
   groups for the design choices DESIGN.md calls out.

   - kernel/*:    Table I on one mid-size benchmark: the compiled plans
                  priced as compile vs. execute, both LUT instruction
                  styles, word-sharded over 1/2/4 domains
   - parallel/*:  whole-sweep SAT dispatch over 1/2/4 solver domains
   - table2/*:    both sweepers on one redundant benchmark
   - cut-limit/*: Algorithm 1's [limit] parameter swept over 2..16
   - algorithm1/*: mode s (cut, simulate the roots) against mode a
   - resim/*:     counter-example resimulation, tail refresh vs. full
   - config/*:    engine-feature ablation (guided init, window refine)
   - tfi-bound/*: the candidate-comparison bound (paper's n = 1000)
   - window/*:    window leaf budget (paper: < 16)

   Absolute times are machine-specific; the interesting output is the
   ratio structure inside each group. `bin/table1.exe` and
   `bin/table2.exe` regenerate the full per-benchmark tables. *)

open Bechamel
open Toolkit
open Stp_sweep

(* ---- fixtures (built once) ---- *)

let sim_aig = Gen.Suites.epfl_by_name "sin"
let sim_lut = Klut.Mapper.map ~k:6 sim_aig

let sim_pats =
  Sim.Patterns.random ~seed:0xBE7CL
    ~num_pis:(Aig.Network.num_pis sim_aig)
    ~num_patterns:2048

let sweep_net =
  Gen.Redundant.inject ~seed:21L ~fraction:0.3
    (Gen.Arith.carry_lookahead_adder ~width:32)

let cut_net = Klut.Mapper.map ~k:4 (Gen.Suites.epfl_by_name "max")

let cut_pats =
  Sim.Patterns.random ~seed:0x51AL
    ~num_pis:(Klut.Network.num_pis cut_net)
    ~num_patterns:512

let cut_targets =
  (* A spread of LUT nodes across the network. *)
  let luts = ref [] in
  Klut.Network.iter_luts cut_net (fun n -> luts := n :: !luts);
  let arr = Array.of_list (List.rev !luts) in
  List.init 8 (fun i -> arr.(i * (Array.length arr / 8)))

let parallel =
  (* Whole-sweep SAT dispatch across solver domains. On one core the
     interesting output is the dispatch overhead vs. sweep:1; on a
     multicore box, the SAT-phase speedup. Word-sharded simulation over
     1/2/4 domains is kernel/exec-*. *)
  let doms = [ 1; 2; 4 ] in
  Test.make_grouped ~name:"parallel"
    [
      Test.make_indexed ~name:"sweep" ~args:doms (fun d ->
          Staged.stage (fun () ->
              Sweep.Stp_sweep.sweep
                ~config:{ Sweep.Engine.stp_config with sat_domains = d }
                sweep_net));
    ]

let kernel =
  (* Table I's simulators: compilation priced separately from
     execution, and the block executor's word sharding swept over 1/2/4
     domains — roughly the core count on an unloaded multicore box, and
     flat on one core. All variants produce bit-identical tables, so
     only time moves. Both k-LUT instruction styles run on the same
     executor, so lut6-stp vs. lut6-bitblast is purely the paper's
     cascade-vs-bit-blast instruction selection. *)
  let doms = [ 1; 2; 4 ] in
  let aig_plan = Sim.Kernel.compile_aig sim_aig in
  let stp_plan = Sim.Kernel.compile_klut ~style:`Stp sim_lut in
  let blast_plan = Sim.Kernel.compile_klut ~style:`Bitblast sim_lut in
  Test.make_grouped ~name:"kernel"
    [
      Test.make ~name:"compile-aig"
        (Staged.stage (fun () -> Sim.Kernel.compile_aig sim_aig));
      Test.make ~name:"compile-lut6-stp"
        (Staged.stage (fun () ->
             (* A private cache so every run compiles for real instead
                of hitting the process-wide shared cache. *)
             Sim.Kernel.compile_klut
               ~cache:(Sim.Kernel.Cache.create ())
               ~style:`Stp sim_lut));
      Test.make_indexed ~name:"exec-aig" ~args:doms (fun d ->
          Staged.stage (fun () ->
              Sim.Kernel.execute ~domains:d aig_plan sim_pats));
      Test.make_indexed ~name:"exec-lut6-stp" ~args:doms (fun d ->
          Staged.stage (fun () ->
              Sim.Kernel.execute ~domains:d stp_plan sim_pats));
      Test.make_indexed ~name:"exec-lut6-bitblast" ~args:doms (fun d ->
          Staged.stage (fun () ->
              Sim.Kernel.execute ~domains:d blast_plan sim_pats));
    ]

let table2 =
  Test.make_grouped ~name:"table2"
    [
      Test.make ~name:"fraig"
        (Staged.stage (fun () -> Sweep.Fraig.sweep sweep_net));
      Test.make ~name:"stp"
        (Staged.stage (fun () -> Sweep.Stp_sweep.sweep sweep_net));
    ]

let cut_limit =
  Test.make_indexed ~name:"cut-limit" ~args:[ 2; 4; 8; 16 ] (fun limit ->
      Staged.stage (fun () ->
          let { Sim.Circuit_cut.network; node_map; _ } =
            Sim.Circuit_cut.cut cut_net ~limit ~targets:cut_targets
          in
          let tbl =
            Sim.Kernel.execute
              (Sim.Kernel.compile_klut ~style:`Stp network)
              cut_pats
          in
          List.map (fun t -> tbl.(node_map.(t))) cut_targets))

let config_ablation =
  let run cfg () = Sweep.Engine.run ~config:cfg sweep_net in
  let base = Sweep.Engine.fraig_config in
  Test.make_grouped ~name:"config"
    [
      Test.make ~name:"baseline" (Staged.stage (run base));
      Test.make ~name:"guided-init"
        (Staged.stage
           (run { base with Sweep.Engine.guided_init = true; guided_queries = 192 }));
      Test.make ~name:"window-refine"
        (Staged.stage (run { base with Sweep.Engine.window_refine = true }));
      Test.make ~name:"guided+window"
        (Staged.stage (run Sweep.Engine.stp_config));
    ]

let tfi_bound =
  Test.make_indexed ~name:"tfi-bound" ~args:[ 10; 100; 1000 ] (fun bound ->
      Staged.stage (fun () ->
          Sweep.Engine.run
            ~config:{ Sweep.Engine.stp_config with Sweep.Engine.max_compares = bound }
            sweep_net))

let window_leaves =
  Test.make_indexed ~name:"window-leaves" ~args:[ 6; 10; 16 ] (fun leaves ->
      Staged.stage (fun () ->
          Sweep.Engine.run
            ~config:
              { Sweep.Engine.stp_config with Sweep.Engine.window_max_leaves = leaves }
            sweep_net))

let mode_s =
  (* Algorithm 1's reason to exist: getting a handful of signatures via
     the circuit cut (mode s) against simulating every node (mode a).
     The cut and both plans amortize across repeated simulations (that
     is how the sweeper uses them), so they are built once in the
     fixture; a separate entry prices cut and compile together. *)
  let cut =
    Sim.Circuit_cut.cut cut_net ~limit:9 ~targets:cut_targets
  in
  let all_plan = Sim.Kernel.compile_klut ~style:`Stp cut_net in
  let roots_plan =
    Sim.Kernel.compile_klut ~style:`Stp cut.Sim.Circuit_cut.network
  in
  Test.make_grouped ~name:"algorithm1"
    [
      Test.make ~name:"mode-a-all-nodes"
        (Staged.stage (fun () -> Sim.Kernel.execute all_plan cut_pats));
      Test.make ~name:"mode-s-simulate-roots"
        (Staged.stage (fun () -> Sim.Kernel.execute roots_plan cut_pats));
      Test.make ~name:"mode-s-including-cut"
        (Staged.stage (fun () ->
             Sim.Circuit_cut.simulate cut_net cut_pats ~targets:cut_targets));
    ]

let incremental =
  (* The counter-example resimulation pattern: one full initial pass,
     then 32 appended patterns handled by a tail refresh (incremental)
     or a second full pass (baseline). The tail refresh is what the
     sweep engine does: one compiled plan, re-run over only the words
     from the one holding the first new pattern. *)
  let base_pats () =
    Sim.Patterns.random ~seed:77L
      ~num_pis:(Aig.Network.num_pis sim_aig)
      ~num_patterns:2048
  in
  let appends k f =
    for i = 1 to k do
      f (Array.init (Aig.Network.num_pis sim_aig) (fun j -> (i + j) mod 3 = 0))
    done
  in
  Test.make_grouped ~name:"resim"
    [
      Test.make ~name:"incremental-tail"
        (Staged.stage (fun () ->
             let pats = base_pats () in
             let plan = Sim.Kernel.compile_aig sim_aig in
             let covered = Sim.Patterns.num_patterns pats in
             let tbl = Sim.Kernel.alloc_table plan ((covered + 32 + 31) / 32) in
             let run lo =
               Sim.Kernel.run plan pats tbl ~inst_lo:0
                 ~inst_hi:(Sim.Kernel.num_instructions plan)
                 ~lo ~hi:(Sim.Patterns.num_words pats)
             in
             run 0;
             appends 32 (Sim.Patterns.add_pattern pats);
             run (covered lsr 5);
             let np = Sim.Patterns.num_patterns pats in
             Array.iter (Sim.Signature.num_patterns_mask np) tbl));
      Test.make ~name:"full-resim"
        (Staged.stage (fun () ->
             let pats = base_pats () in
             let plan = Sim.Kernel.compile_aig sim_aig in
             ignore (Sim.Kernel.execute plan pats);
             appends 32 (Sim.Patterns.add_pattern pats);
             ignore (Sim.Kernel.execute plan pats)));
    ]

let all_tests =
  Test.make_grouped ~name:"stp_sweep"
    [
      parallel; kernel; table2; cut_limit; config_ablation; tfi_bound;
      window_leaves; mode_s; incremental;
    ]

let () =
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] all_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> e
        | _ -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
      in
      rows := (name, estimate, r2) :: !rows)
    results;
  let rows = List.sort compare !rows in
  Printf.printf "%-40s %15s %8s\n" "benchmark" "time/run" "r^2";
  Printf.printf "%s\n" (String.make 65 '-');
  List.iter
    (fun (name, ns, r2) ->
      let time_str =
        if ns >= 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Printf.printf "%-40s %15s %8.4f\n" name time_str r2)
    rows

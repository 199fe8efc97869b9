(* Input generation for the benchmark, run as its own process.

     make_inputs.exe WORKLOAD SEED DIR

   Writes the workload's inputs into DIR (created) plus [manifest.txt],
   one input per line: "<name> <file>" ([sim-kernel] adds the BLIF
   mapping as a third field). Everything is derived from SEED through
   the library's splitmix64 stream, so the same seed gives
   byte-identical files. LUT mapping happens here, so neither the
   harness's set-up time nor its peak memory includes it.

   Sizes are fixed per workload and only the structure varies with the
   seed; README.md explains the choice. *)

let rng_of_seed s = Sutil.Rng.create (Int64.of_string s)

let draw rng = Sutil.Rng.int64 rng

let clean net = fst (Aig.Network.cleanup net)

(* FSM next-state cones with injected redundancy: the 6s* rows of
   Table II, scaled down. *)
let fsm rng ~state_bits ~input_bits ~complexity =
  let s_gen = draw rng in
  let s_inj = draw rng in
  clean
    (Gen.Redundant.inject ~seed:s_inj ~fraction:0.25
       (Gen.Control.fsm_next_state ~seed:s_gen ~state_bits ~input_bits
          ~complexity))

(* Random-control logic with injected redundancy: the oski/leon2 rows,
   which carry the false candidates the paper's windows filter. *)
let mix rng ~pis ~gates ~pos =
  let s_gen = draw rng in
  let s_inj = draw rng in
  clean
    (Gen.Redundant.inject ~seed:s_inj ~fraction:0.25
       (Gen.Control.random_logic ~seed:s_gen ~pis ~gates ~pos))

let write_aig dir name net =
  let file = name ^ ".aag" in
  Aig.Aiger.write_file (Filename.concat dir file) net;
  file

let generate workload rng dir =
  match workload with
  | "sweep-stp" ->
    List.init 4 (fun i ->
        let name = Printf.sprintf "fsm%02d" i in
        [ name; write_aig dir name (fsm rng ~state_bits:48 ~input_bits:40 ~complexity:45) ])
    @ List.init 16 (fun i ->
          let name = Printf.sprintf "mix%02d" i in
          [ name; write_aig dir name (mix rng ~pis:30 ~gates:1000 ~pos:18) ])
  | "sim-kernel" ->
    (* mem_ctrl-sized control networks (Table I), each with its 6-LUT
       mapping. *)
    List.init 4 (fun i ->
        let name = Printf.sprintf "net%02d" i in
        let aig =
          clean
            (Gen.Control.random_logic ~seed:(draw rng) ~pis:48 ~gates:9000
               ~pos:22)
        in
        let blif = name ^ ".blif" in
        Klut.Blif.write_file (Filename.concat dir blif) (Klut.Mapper.map aig);
        [ name; write_aig dir name aig; blif ])
  | "sweepd-cache" ->
    (* One request in five is about twice the work of the others. The
       p90 latency then falls among the larger requests, instead of on
       the edge of a uniform mix where one slow moment of the machine
       decides it. *)
    List.init 24 (fun i ->
        let name = Printf.sprintf "req%02d" i in
        [ name; write_aig dir name (fsm rng ~state_bits:24 ~input_bits:24 ~complexity:30) ])
    @ List.init 6 (fun i ->
          let name = Printf.sprintf "big%02d" i in
          [ name; write_aig dir name (fsm rng ~state_bits:32 ~input_bits:32 ~complexity:36) ])
  | w ->
    Printf.eprintf "make_inputs: unknown workload %S\n" w;
    exit 2

let () =
  match Sys.argv with
  | [| _; workload; seed; dir |] ->
    let rng = rng_of_seed seed in
    Sys.mkdir dir 0o755;
    let rows = generate workload rng dir in
    let oc = open_out (Filename.concat dir "manifest.txt") in
    List.iter (fun r -> output_string oc (String.concat " " r ^ "\n")) rows;
    close_out oc
  | _ ->
    prerr_endline "usage: make_inputs.exe WORKLOAD SEED DIR";
    exit 2

module A = Aig.Network
module L = Aig.Lit
module Sg = Sim.Signature

type verdict =
  | Equivalent
  | Different of { po : int; counterexample : bool array }
  | Undetermined of int

(* Copy [src] into [dst] over existing PI literals; returns PO literals
   in [dst]. *)
let import dst src pi_lits =
  let map = Array.make (A.num_nodes src) (-1) in
  map.(0) <- L.false_;
  A.iter_nodes src (fun nd ->
      match A.kind src nd with
      | A.Const -> ()
      | A.Pi i -> map.(nd) <- pi_lits.(i)
      | A.And ->
        let tr l = L.xor_compl map.(L.node l) (L.is_compl l) in
        map.(nd) <- A.add_and dst (tr (A.fanin0 src nd)) (tr (A.fanin1 src nd)));
  Array.map
    (fun l -> L.xor_compl map.(L.node l) (L.is_compl l))
    (A.pos src)

let check ?(seed = 0xCECL) ?(sim_words = 16) ?conflict_limit
    ?(certify = false) net_a net_b =
  if A.num_pis net_a <> A.num_pis net_b || A.num_pos net_a <> A.num_pos net_b
  then Different { po = -1; counterexample = [||] }
  else begin
    let miter = A.create () in
    let pis = Array.init (A.num_pis net_a) (fun _ -> A.add_pi miter) in
    let outs_a = import miter net_a pis in
    let outs_b = import miter net_b pis in
    (* Random-simulation filter: any differing output bit is an instant
       counterexample. *)
    let pats =
      Sim.Patterns.random ~seed ~num_pis:(A.num_pis net_a)
        ~num_patterns:(32 * sim_words)
    in
    let np = Sim.Patterns.num_patterns pats in
    let tbl = Sim.Kernel.execute (Sim.Kernel.compile_aig miter) pats in
    let lit_sig l = Sim.Bitwise.po_signature tbl ~num_patterns:np ~lit:l in
    let sim_diff = ref None in
    Array.iteri
      (fun o la ->
        if !sim_diff = None then begin
          let sa = lit_sig la and sb = lit_sig outs_b.(o) in
          if not (Sg.equal sa sb) then begin
            (* Find the witness pattern. *)
            let p = ref 0 in
            while Sg.get sa !p = Sg.get sb !p do
              incr p
            done;
            sim_diff := Some (o, Sim.Patterns.pattern pats !p)
          end
        end)
      outs_a;
    match !sim_diff with
    | Some (po, counterexample) -> Different { po; counterexample }
    | None ->
      (* Sweep the joint network first — fraig-style CEC. Internal
         equivalences between the two copies merge bottom-up, so the
         output queries below become trivial or at least local; a plain
         monolithic miter SAT call would be hopeless on e.g. two copies
         of a multiplier. Register both PO sets so the sweep keeps and
         translates them. *)
      Array.iter (fun l -> ignore (A.add_po miter l)) outs_a;
      Array.iter (fun l -> ignore (A.add_po miter l)) outs_b;
      let swept, _stats =
        Engine.run ~config:{ Engine.stp_config with Engine.certify } miter
      in
      let n = Array.length outs_a in
      let outs_a = Array.init n (fun o -> A.po swept o) in
      let outs_b = Array.init n (fun o -> A.po swept (n + o)) in
      let solver = Sat.Solver.create () in
      (* Certified CEC audits the final PO queries too: the checker sees
         the whole clause stream of this solver. *)
      let cert =
        if certify then begin
          let d = Sat.Drup.create () in
          Sat.Drup.attach d solver;
          Some d
        end
        else None
      in
      let env = Sat.Tseitin.create swept solver in
      let verdict = ref Equivalent in
      Array.iteri
        (fun o la ->
          if !verdict = Equivalent && la <> outs_b.(o) then
            match
              Sat.Tseitin.check_equiv ?conflict_limit ?certify:cert env la
                outs_b.(o)
            with
            | Sat.Tseitin.Equivalent -> ()
            | Sat.Tseitin.Counterexample ce ->
              verdict := Different { po = o; counterexample = ce }
            | Sat.Tseitin.Undetermined -> verdict := Undetermined o
            | Sat.Tseitin.Uncertified _ ->
              (* An unreplayable certificate proves nothing either way —
                 same standing as an exhausted budget. *)
              verdict := Undetermined o)
        outs_a;
      !verdict
  end

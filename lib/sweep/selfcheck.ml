let run ?(config = Engine.stp_config) net =
  let swept, stats = Engine.run ~config net in
  (* The oracle runs with fault injection suspended: faults may degrade
     the sweep under test, never the check that judges its output. *)
  (if config.Engine.verify then
     match
       Obs.Fault.bypass (fun () ->
           Cec.check ~certify:config.Engine.certify net swept)
     with
     | Cec.Equivalent -> ()
     | Cec.Different { po; _ } ->
       raise
         (Engine.Verification_failed
            (Printf.sprintf "post-sweep CEC: PO %d differs from the input" po))
     | Cec.Undetermined po ->
       raise
         (Engine.Verification_failed
            (Printf.sprintf
               "post-sweep CEC: PO %d could not be proven equivalent" po)));
  (swept, stats)

let sweep ?(config = Engine.stp_config) net = Selfcheck.run ~config net

let sweep ?(config = Engine.fraig_config) net = Selfcheck.run ~config net

let po_signature tbl ~num_patterns ~lit =
  let module L = Aig.Lit in
  let s = tbl.(L.node lit) in
  if L.is_compl lit then Signature.complement_of ~num_patterns s
  else Array.copy s

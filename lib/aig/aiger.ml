exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let fail_at line fmt =
  Printf.ksprintf
    (fun s -> raise (Parse_error (Printf.sprintf "line %d: %s" line s)))
    fmt

(* Robustness-test hook: randomly truncate the raw text before parsing.
   The contract is that the parser then raises Parse_error (or succeeds
   on a still-well-formed prefix) — never anything else. *)
let fault_truncate = Obs.Fault.register "parse.truncate"

(* Header fields are counts/indices; cap them well below array-size
   limits so a malicious header can neither overflow sums nor provoke
   [Array.make] into Invalid_argument/Out_of_memory. *)
let max_header_field = 1 lsl 30

(* [String.trim]'s whitespace, less the line break. *)
let is_blank = function ' ' | '\t' | '\r' | '\012' -> true | _ -> false

(* The value of [s.[lo .. hi - 1]] as an unsigned decimal, or -1 if it is
   empty, holds anything but digits, or exceeds [max_int]. *)
let decimal s lo hi =
  let rec go i v =
    if i = hi then v
    else
      match Char.code s.[i] - 48 with
      | d when d >= 0 && d <= 9 && v <= (max_int - d) / 10 -> go (i + 1) ((10 * v) + d)
      | _ -> -1
  in
  if lo = hi then -1 else go lo 0

let read_gen ~allow_latches text =
  let text = Obs.Fault.truncate fault_truncate text in
  let n = String.length text in
  (* The line last read is [text.[start .. stop - 1]], number [ln]; the
     next one starts at [next] (n + 1 once the text is used up). *)
  let start = ref 0 and stop = ref 0 and ln = ref 0 and next = ref 0 in
  let rec eol i = if i < n && text.[i] <> '\n' then eol (i + 1) else i in
  let rec blank i e = i = e || (is_blank text.[i] && blank (i + 1) e) in
  let ints = Array.make 3 0 in
  (* Reads the line at [next] in one scan and moves past it. Returns -2
     for a line to skip (blank, or starting with 'c': comments and the
     symbol table), -1 if one of its space-separated tokens is not an
     unsigned decimal, else the count of its integers, keeping the first
     three in [ints]. *)
  let finish s e code =
    start := s;
    stop := e;
    next := e + 1;
    incr ln;
    code
  in
  let rec token s i count =
    if i = n || text.[i] = '\n' then finish s i (if count = 0 then -2 else count)
    else if text.[i] = ' ' then token s (i + 1) count
    else begin
      let j = ref i and v = ref 0 in
      while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do
        v := (10 * !v) + Char.code text.[!j] - 48;
        incr j
      done;
      (* Up to 18 digits cannot overflow; longer runs are checked. *)
      if (!j < n && text.[!j] <> ' ' && text.[!j] <> '\n')
         || (!j - i > 18 && decimal text i !j < 0)
      then
        let e = eol i in
        finish s e (if blank s e then -2 else -1)
      else begin
        if count < 3 then ints.(count) <- !v;
        token s !j (count + 1)
      end
    end
  in
  let read_line () =
    let s = !next in
    if s < n && text.[s] = 'c' then finish s (eol s) (-2) else token s s 0
  in
  (* The next line not skipped, coded as by [read_line]; -3 at the end. *)
  let rec advance () =
    if !next > n then -3
    else match read_line () with -2 -> advance () | code -> code
  in
  let line_text () = String.sub text !start (!stop - !start) in
  if advance () = -3 then fail "line 1: empty file";
  let hline = !ln and header = String.trim (line_text ()) in
  let bad_header () = fail_at hline "bad header: %s" (line_text ()) in
  (* [aag] and five fields, each after a single space. *)
  let cut = ref 3 in
  let field () =
    if !cut >= String.length header || header.[!cut] <> ' ' then bad_header ();
    let s = !cut + 1 in
    cut := Option.value ~default:(String.length header) (String.index_from_opt header s ' ');
    match decimal header s !cut with
    | v when v < 0 -> fail_at hline "bad header field %s" (String.sub header s (!cut - s))
    | v when v > max_header_field -> fail_at hline "header field out of range: %d" v
    | v -> v
  in
  if not (String.starts_with ~prefix:"aag" header) then bad_header ();
  let m = field () in
  let i = field () in
  let l = field () in
  let o = field () in
  let a = field () in
  if !cut <> String.length header then bad_header ();
  if l <> 0 && not allow_latches then fail_at hline "latches are not supported";
  if m > i + l + a then
    fail_at hline "header declares %d variables but only %d definitions" m
      (i + l + a);
  let expected = i + l + o + a in
  (* A body line takes two bytes at least (a digit and a line break), so a
     header promising more lines than the rest of the text holds is a
     truncated file. This also bounds every allocation below by the size
     of the input. *)
  if expected > (n - !stop) / 2 then fail "truncated file";
  let seen = ref 0 in
  let next_body () =
    let code = advance () in
    if code = -3 then fail "truncated file";
    incr seen;
    code
  in
  (* A file with fewer body lines than its header promises is reported as
     truncated, whatever else is wrong with the lines it has. *)
  let fail_body fmt =
    let line = !ln in
    let rec short k = k < expected && (advance () = -3 || short (k + 1)) in
    Printf.ksprintf
      (fun s -> if short !seen then fail "truncated file" else fail_at line "%s" s)
      fmt
  in
  (* The next body line, which must hold [want] integers. *)
  let body_line what want =
    if next_body () <> want then fail_body "bad %s line: %s" what (line_text ())
  in
  let net = Network.create ~capacity:(m + 1) () in
  (* node_of_var.(v) = our node id for AIGER variable v *)
  let node_of_var = Array.make (m + 1) (-1) in
  node_of_var.(0) <- 0;
  (* node_of_var entries: -1 undefined; >= 0 a plain node id; <= -2 a
     definition that structural hashing collapsed to the literal
     [-(entry + 2)]. *)
  let tr lit =
    let v = lit lsr 1 in
    if v > m then fail_body "literal %d out of range" lit;
    let nd = node_of_var.(v) in
    if nd = -1 then fail_body "forward or undefined reference to variable %d" v
    else if nd <= -2 then Lit.xor_compl (-(nd + 2)) (lit land 1 = 1)
    else Lit.of_node nd (lit land 1 = 1)
  in
  let define_pi lit =
    if lit land 1 = 1 || lit <= 0 || lit lsr 1 > m then
      fail_body "bad input literal %d" lit;
    if node_of_var.(lit lsr 1) <> -1 then fail_body "redefinition of %d" lit;
    node_of_var.(lit lsr 1) <- Lit.node (Network.add_pi net)
  in
  for _ = 1 to i do
    body_line "input" 1;
    define_pi ints.(0)
  done;
  (* Latch outputs become extra PIs; next-state literals become extra POs
     after the real ones. *)
  let latches = (!next, !ln) in
  for _ = 1 to l do
    body_line "latch" 2;
    define_pi ints.(0)
  done;
  (* Outputs refer to ANDs defined after them: their lines, and then the
     latch lines, are read again once the ANDs are in. *)
  let outputs = (!next, !ln) in
  for _ = 1 to o do
    ignore (next_body ())
  done;
  for _ = 1 to a do
    body_line "AND" 3;
    let out = ints.(0) and f0 = ints.(1) and f1 = ints.(2) in
    if out land 1 = 1 || out <= 0 || out lsr 1 > m then
      fail_body "bad AND literal %d" out;
    let lit = Network.add_and net (tr f0) (tr f1) in
    (* Structural hashing may simplify; record whatever literal the
       definition resolves to. A complemented result is legal. *)
    if node_of_var.(out lsr 1) >= 0 then fail_body "redefinition of %d" out;
    if Lit.is_compl lit then node_of_var.(out lsr 1) <- -2 - lit
    else node_of_var.(out lsr 1) <- Lit.node lit
  done;
  let reread (pos, line) count what want k =
    next := pos;
    ln := line;
    for _ = 1 to count do
      body_line what want;
      ignore (Network.add_po net (tr ints.(k)))
    done
  in
  reread outputs o "output" 1 0;
  reread latches l "latch" 2 1;
  (net, l)

let read text = fst (read_gen ~allow_latches:false text)
let read_sequential text = read_gen ~allow_latches:true text

let read_file path = read (In_channel.with_open_bin path In_channel.input_all)

let read_sequential_file path =
  read_sequential (In_channel.with_open_bin path In_channel.input_all)

(* Decimal digits straight into the buffer, with no [Printf] per line. *)
let rec add_int buf n =
  if n >= 10 then add_int buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let write net =
  let m = Network.num_nodes net - 1 in
  let buf = Buffer.create (16 * (m + 1)) in
  let put n sep =
    add_int buf n;
    Buffer.add_char buf sep
  in
  Buffer.add_string buf "aag ";
  put m ' ';
  put (Network.num_pis net) ' ';
  Buffer.add_string buf "0 ";
  put (Network.num_pos net) ' ';
  put (Network.num_ands net) '\n';
  for i = 0 to Network.num_pis net - 1 do
    put (Lit.of_node (Network.pi_node net i) false) '\n'
  done;
  for i = 0 to Network.num_pos net - 1 do
    put (Network.po net i) '\n'
  done;
  Network.iter_ands net (fun n ->
      put (Lit.of_node n false) ' ';
      put (Network.fanin0 net n) ' ';
      put (Network.fanin1 net n) '\n');
  Buffer.contents buf

let write_file path net =
  Out_channel.with_open_bin path (fun oc -> output_string oc (write net))

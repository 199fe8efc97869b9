(* Parser fuzzing: random truncations and mutations of valid AIGER,
   BLIF and DIMACS documents must either parse or raise that parser's
   [Parse_error] — never any other exception, never a crash. This is
   the guarantee the CLI exit-code mapping (exit 2) rests on. The same
   mutants drive the differential tests: the single-scan AIGER and BLIF
   readers must agree with the list-based references in [Codec_ref]. *)

module A = Aig.Network
module L = Aig.Lit
module K = Klut.Network
module Rng = Sutil.Rng

let random_network rng ~pis ~gates ~pos =
  let net = A.create () in
  let inputs = Array.init pis (fun _ -> A.add_pi net) in
  let all = ref (Array.to_list inputs) in
  for _ = 1 to gates do
    let pick () =
      let l = List.nth !all (Rng.int rng (List.length !all)) in
      L.xor_compl l (Rng.bool rng)
    in
    let l = A.add_and net (pick ()) (pick ()) in
    if not (L.is_const l) then all := l :: !all
  done;
  for _ = 1 to pos do
    let l = List.nth !all (Rng.int rng (List.length !all)) in
    ignore (A.add_po net (L.xor_compl l (Rng.bool rng)))
  done;
  net

let random_aiger rng =
  let pis = 2 + Rng.int rng 6
  and gates = 5 + Rng.int rng 60
  and pos = 1 + Rng.int rng 5 in
  Aig.Aiger.write (random_network rng ~pis ~gates ~pos)

(* A combinational file turned sequential: the last PIs become latches
   whose next state is a random literal. *)
let random_sequential_aiger rng =
  let lines = Array.of_list (String.split_on_char '\n' (random_aiger rng)) in
  Scanf.sscanf lines.(0) "aag %d %d 0 %d %d" (fun m i o a ->
      let l = Rng.int rng i in
      lines.(0) <- Printf.sprintf "aag %d %d %d %d %d" m (i - l) l o a;
      for k = i - l + 1 to i do
        lines.(k) <- Printf.sprintf "%s %d" lines.(k) (Rng.int rng ((2 * m) + 2))
      done);
  String.concat "\n" (Array.to_list lines)

(* 4- to 8-LUTs, so that tables span one word and several. *)
let random_blif rng =
  let pis = 2 + Rng.int rng 6
  and gates = 5 + Rng.int rng 60
  and pos = 1 + Rng.int rng 5 in
  Klut.Blif.write
    (Klut.Mapper.map ~k:(4 + Rng.int rng 5) (random_network rng ~pis ~gates ~pos))

let random_dimacs rng =
  let num_vars = 1 + Rng.int rng 10 in
  let clauses =
    List.init
      (Rng.int rng 20)
      (fun _ ->
        List.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng (2 * num_vars)))
  in
  Sat.Dimacs.print ~num_vars clauses

(* A grab-bag of lines that are plausible for the *wrong* format, plus
   outright garbage — inserted mid-document they probe cross-format
   confusion and integer-parsing edges. *)
let garbage_lines =
  [|
    "0 0 0 0 0 0 0";
    "p cnf 3 3";
    ".names a b c";
    "-1--0 1";
    "zzz";
    "18446744073709551616 2";
    "-99";
    "aag 1 1";
    "\x00\xffbinary";
    "4611686018427387904 4611686018427387904 1";
    ".latch a b 0";
    "";
  |]

let mutate rng text =
  let lines () = String.split_on_char '\n' text in
  match Rng.int rng 5 with
  | 0 ->
    (* Truncate at an arbitrary byte offset. *)
    String.sub text 0 (Rng.int rng (String.length text + 1))
  | 1 ->
    (* Replace one byte with an arbitrary byte. *)
    if text = "" then text
    else begin
      let b = Bytes.of_string text in
      Bytes.set b (Rng.int rng (Bytes.length b)) (Char.chr (Rng.int rng 256));
      Bytes.to_string b
    end
  | 2 ->
    (* Delete a line. *)
    let ls = lines () in
    let k = Rng.int rng (List.length ls) in
    String.concat "\n" (List.filteri (fun i _ -> i <> k) ls)
  | 3 ->
    (* Duplicate a line. *)
    let ls = lines () in
    let k = Rng.int rng (List.length ls) in
    String.concat "\n"
      (List.concat (List.mapi (fun i l -> if i = k then [ l; l ] else [ l ]) ls))
  | _ ->
    (* Insert a garbage line. *)
    let ls = lines () in
    let k = Rng.int rng (List.length ls + 1) in
    let g = garbage_lines.(Rng.int rng (Array.length garbage_lines)) in
    String.concat "\n"
      (List.concat (List.mapi (fun i l -> if i = k then [ g; l ] else [ l ]) ls)
      @ if k = List.length ls then [ g ] else [])

let random_json rng =
  (* Skewed toward nesting and strings-with-escapes: the two places a
     JSON parser can die in interesting ways. *)
  let rec value depth =
    match if depth > 4 then Rng.int rng 4 else Rng.int rng 6 with
    | 0 -> "null"
    | 1 -> if Rng.bool rng then "true" else "false"
    | 2 -> string_of_int (Rng.int rng 2000 - 1000)
    | 3 ->
      let chars =
        List.init (Rng.int rng 8) (fun _ ->
            match Rng.int rng 5 with
            | 0 -> "\\\""
            | 1 -> "\\u0041"
            | 2 -> "\\n"
            | 3 -> "x"
            | _ -> String.make 1 (Char.chr (32 + Rng.int rng 90)))
      in
      "\"" ^ String.concat "" chars ^ "\""
    | 4 ->
      let n = Rng.int rng 4 in
      "[" ^ String.concat "," (List.init n (fun _ -> value (depth + 1))) ^ "]"
    | _ ->
      let n = Rng.int rng 4 in
      "{"
      ^ String.concat ","
          (List.init n (fun i ->
               Printf.sprintf "\"k%d\":%s" i (value (depth + 1))))
      ^ "}"
  in
  value 0

(* Hostile inputs aimed at specific parser weaknesses: unbounded
   recursion (stack overflow is not a Parse_error) and the \u escape's
   integer parsing. These are the wire-facing guarantees sweepd's
   per-request isolation rests on. *)
let json_directed () =
  let deep n = String.concat "" (List.init n (fun _ -> "[")) in
  List.iter
    (fun text ->
      match Obs.Json.parse text with
      | _ -> ()
      | exception Obs.Json.Parse_error _ -> ()
      | exception e ->
        Alcotest.failf "unexpected exception %s on %S..."
          (Printexc.to_string e)
          (String.sub text 0 (min 40 (String.length text))))
    [
      deep 100_000;
      deep 100_000 ^ "1" ^ String.concat "" (List.init 100_000 (fun _ -> "]"));
      "{\"a\":" ^ deep 50_000;
      "\"\\uZZZZ\"";
      "\"\\u12\"";
      "\"\\u\"";
      "\"\\x41\"";
      "[1,2,";
      "{\"a\"";
      "\"unterminated";
      "18446744073709551616";
      "1e99999";
      "nul";
      "\xff\xfe";
      "";
    ]

let arb_case =
  QCheck.make
    ~print:(fun (seed, rounds) -> Printf.sprintf "seed=%Ld rounds=%d" seed rounds)
    QCheck.Gen.(
      let* seed = ui64 in
      let* rounds = int_range 1 3 in
      return (seed, rounds))

let prop_parser ~name ~generate ~parse ~is_parse_error (seed, rounds) =
  let rng = Rng.create seed in
  let text = ref (generate rng) in
  for _ = 1 to rounds do
    text := mutate rng !text
  done;
  match parse !text with
  | _ -> true
  | exception e ->
    if is_parse_error e then true
    else
      QCheck.Test.fail_reportf "%s: unexpected exception %s on input %S" name
        (Printexc.to_string e) !text

let fuzz_test name ~generate ~parse ~is_parse_error =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:300 arb_case
       (prop_parser ~name ~generate ~parse ~is_parse_error))

(* ---- differential: the single-scan codecs against the references ---- *)

(* Where a parse failed: the "line N" of its message, or the whole
   message of a position-less error ("truncated file"). *)
let position msg =
  match String.index_opt msg ':' with
  | Some i when String.starts_with ~prefix:"line " msg -> String.sub msg 0 i
  | _ -> msg

let outcome read text =
  match read text with
  | v -> Ok v
  | exception
      ( Aig.Aiger.Parse_error m
      | Codec_ref.Aiger.Parse_error m
      | Klut.Blif.Parse_error m
      | Codec_ref.Blif.Parse_error m ) ->
    Error (position m)

(* Tokens that [int_of_string] took but that are not plain unsigned
   decimal (a sign, a 0x/0o/0b/0u prefix, an underscore). The readers
   reject them now, so inputs holding one are exempt. *)
let non_decimal_token text =
  let plain = String.for_all (fun c -> c >= '0' && c <= '9') in
  List.exists
    (fun line ->
      List.exists
        (fun t -> (not (plain t)) && int_of_string_opt t <> None)
        (String.split_on_char ' ' line @ String.split_on_char ' ' (String.trim line)))
    (String.split_on_char '\n' text)

(* Every node's kind and fanins, then the outputs. *)
let aig_shape net =
  ( List.init (A.num_nodes net) (fun nd ->
        match A.kind net nd with
        | A.Const -> [ -2 ]
        | A.Pi i -> [ -1; i ]
        | A.And -> [ A.fanin0 net nd; A.fanin1 net nd ]),
    Array.to_list (A.pos net) )

let klut_shape net =
  ( List.init (K.num_nodes net) (fun nd ->
        ( K.is_pi net nd,
          Array.to_list (K.fanins net nd),
          if K.is_lut net nd then
            let f = K.func net nd in
            Tt.Truth_table.num_vars f :: Array.to_list (Tt.Truth_table.to_words f)
          else [] )),
    List.init (K.num_pos net) (K.po net) )

let aiger_agree text =
  non_decimal_token text
  || begin
    let seq read t =
      let net, latches = read t in
      (latches, aig_shape net)
    in
    outcome (fun t -> aig_shape (Aig.Aiger.read t)) text
    = outcome (fun t -> aig_shape (Codec_ref.Aiger.read t)) text
    && outcome (seq Aig.Aiger.read_sequential) text
       = outcome (seq Codec_ref.Aiger.read_sequential) text
  end

let blif_agree text =
  outcome (fun t -> klut_shape (Klut.Blif.read t)) text
  = outcome (fun t -> klut_shape (Codec_ref.Blif.read t)) text

let arb_mutant =
  QCheck.make
    ~print:(fun (seed, rounds) -> Printf.sprintf "seed=%Ld rounds=%d" seed rounds)
    QCheck.Gen.(
      let* seed = ui64 in
      let* rounds = int_range 0 3 in
      return (seed, rounds))

let differential name ~generate ~agree =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:500 arb_mutant (fun (seed, rounds) ->
         let rng = Rng.create seed in
         let text = ref (generate rng) in
         for _ = 1 to rounds do
           text := mutate rng !text
         done;
         agree !text
         || QCheck.Test.fail_reportf "%s: reader and reference disagree on %S" name
              !text))

let aiger_writer_matches_printf =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"aiger writer = Printf writer" ~count:200 arb_case
       (fun (seed, rounds) ->
         let rng = Rng.create seed in
         (* [rounds] (1 to 3) picks the size: literals of 1 to 4 digits *)
         let scale = [| 10; 100; 1000 |].(rounds - 1) in
         let net =
           random_network rng ~pis:(1 + Rng.int rng 8) ~gates:(Rng.int rng (3 * scale))
             ~pos:(Rng.int rng 6)
         in
         Aig.Aiger.write net = Codec_ref.Aiger.write net))

let aiger_writer_empty () =
  let net = A.create () in
  Alcotest.(check string) "empty network" (Codec_ref.Aiger.write net) (Aig.Aiger.write net)

(* Strings of 0 to 64 KB over all 256 byte values: the escaper writes the
   reference's bytes, and the parser reads them back. *)
let json_string_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"json strings round-trip" ~count:60
       QCheck.(
         make
           ~print:(fun (seed, len) -> Printf.sprintf "seed=%Ld len=%d" seed len)
           Gen.(pair ui64 (oneof [ int_range 0 64; int_range 0 65536; return 65536 ])))
       (fun (seed, len) ->
         let rng = Rng.create seed in
         let s =
           if Int64.rem seed 4L = 0L then String.init len (fun i -> Char.chr (i land 255))
           else String.init len (fun _ -> Char.chr (Rng.int rng 256))
         in
         let text = Obs.Json.to_string (Obs.Json.String s) in
         let b = Buffer.create 16 in
         Codec_ref.Json.escape_string b s;
         text = Buffer.contents b && Obs.Json.parse text = Obs.Json.String s))

(* The in-place integer scanner under hostile tokens: each input raises
   only [Parse_error] and agrees with the reference where that one does
   not take the token. The last cases have no final newline. *)
let hostile_integers () =
  let body tok = Printf.sprintf "aag 1 1 0 1 0\n2\n%s\n" tok in
  let rejected =
    [
      (* digit runs past max_int; 2^64 + 2 would wrap to a valid 2 *)
      body "4611686018427387904";
      body "18446744073709551618";
      body (String.make 400 '9');
      "aag 18446744073709551617 1 0 1 0\n2\n2\n";
      "aag 4611686018427387904 1 0 1 0\n2\n2\n";
      (* signs, prefixes, underscores *)
      body "-2";
      body "+2";
      body "0x2";
      body "0b10";
      body "0o2";
      body "0u2";
      body "2_";
      body "1_0";
      body "-";
      body "+";
      body "0x";
      body "_";
      "aag +1 1 0 1 0\n2\n2\n";
      "aag 0x1 1 0 1 0\n2\n2\n";
      "aag 1_ 1 0 1 0\n2\n2\n";
      "aag -0 0 0 0 0\n";
      (* tabs, CR before LF, NUL bytes *)
      "aag 1 1 0 1 0\r\n2\r\n2\r\n";
      body "2\t";
      "aag 1 1 0 1 0\n\t2\n2\n";
      "aag\t1 1 0 1 0\n2\n2\n";
      body "2\0002";
      body "\000";
      "\000aag 1 1 0 1 0\n2\n2\n";
      (* header fields at 2^30 and 2^30 + 1 *)
      "aag 1073741824 1073741824 0 0 0\n2\n";
      "aag 1073741824 0 0 0 1073741824\n";
      "aag 1073741824 1073741824 1073741824 1073741824 1073741824\n";
      "aag 1073741825 1 0 1 0\n2\n2\n";
      "aag 1 1073741825 0 0 0\n";
      "aag 1 1 0 1073741825 0\n";
      (* truncated, no final newline *)
      "aag 3 2 0 1 1\n2\n4\n7\n6 2";
      "aag 3 2 0 1 1\n2\n4\n7";
    ]
  in
  List.iter
    (fun text ->
      List.iter
        (fun read ->
          match read text with
          | () -> Alcotest.failf "accepted %S" text
          | exception Aig.Aiger.Parse_error _ -> ()
          | exception e ->
            Alcotest.failf "%s on %S" (Printexc.to_string e) text)
        [
          (fun t -> ignore (Aig.Aiger.read t));
          (fun t -> ignore (Aig.Aiger.read_sequential t));
        ];
      if not (aiger_agree text) then Alcotest.failf "reference disagrees on %S" text)
    rejected;
  let whole = "aag 3 2 0 1 1\n2\n4\n7\n6 2 4\n" in
  let same text what =
    Alcotest.(check bool) what true (aig_shape (Aig.Aiger.read text) = aig_shape (Aig.Aiger.read whole));
    Alcotest.(check bool) (what ^ ", as the reference") true (aiger_agree text)
  in
  same (String.sub whole 0 (String.length whole - 1)) "no final newline";
  same "aag 3 2 0 1 1\n\t\n2\n\r\n4\n \012 \n7\nc\t1\n6 2 4\n" "blank lines of tabs, CR, FF"

(* The BLIF tokenizer on the same bytes: CR before LF and tabs are
   blanks at line ends, NUL is a name character, a trailing backslash
   joins lines. A defective block (undefined fanin, mixed or malformed
   rows) is reported when it closes, so a bad line inside it comes
   first. Every case matches the reference. *)
let blif_directed () =
  List.iter
    (fun text ->
      if not (blif_agree text) then Alcotest.failf "reference disagrees on %S" text)
    [
      ".model t\r\n.inputs a b\r\n.outputs y\r\n.names a b y\r\n11 1\r\n.end\r\n";
      ".model t\n.inputs\ta\tb\n.outputs y\n.names a b y\n1- 1\n-1 1\n.end";
      ".model t\n.inputs a\000 b\n.outputs y\n.names a\000 b y\n11 0\n.end\n";
      ".model t\n.inputs a \\\n b\n.outputs y\n.names a b \\\n y\n11 1\n";
      ".model t\n.inputs a\r\\\n\n.outputs y\n.names a\r y\n1 1\n";
      ".model t\n.inputs a b\n.outputs y\n.names a b y\n1\r1 1\n.end\n";
      ".model t\n.inputs a b # c\n.outputs y\n.names a b y\n11 1 # x\n.end";
      ".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n0 0\nzzz\n.end\n";
      ".model t\n.inputs a\n.outputs y\n.names b y\n1 1\n1 1 1\n.end\n";
      ".model t\n.inputs a\n.outputs y\n.names a y\n1x 1\n1 2\n.end\n";
      ".model t\n.inputs a\n.outputs y\n.names y\n1\n1\n.names a y\n";
      (* cubes with don't-cares on both sides of the 32-bit word *)
      ".model t\n.inputs a b c d e f g\n.outputs y z\n.names a b c d e f g y\n\
       1-----1 1\n-0-1-0- 1\n--1--1- 1\n.names a b c d e f g z\n0---1-- 0\n-----10 0\n.end\n";
    ]

let () =
  Alcotest.run "fuzz"
    [
      ( "parsers",
        [
          fuzz_test "aiger mutations"
            ~generate:random_aiger
            ~parse:(fun t -> ignore (Aig.Aiger.read t))
            ~is_parse_error:(function Aig.Aiger.Parse_error _ -> true | _ -> false);
          fuzz_test "blif mutations"
            ~generate:random_blif
            ~parse:(fun t -> ignore (Klut.Blif.read t))
            ~is_parse_error:(function Klut.Blif.Parse_error _ -> true | _ -> false);
          fuzz_test "dimacs mutations"
            ~generate:random_dimacs
            ~parse:(fun t -> ignore (Sat.Dimacs.parse t))
            ~is_parse_error:(function Sat.Dimacs.Parse_error _ -> true | _ -> false);
        ] );
      ( "json",
        [
          fuzz_test "json mutations"
            ~generate:random_json
            ~parse:(fun t -> ignore (Obs.Json.parse t))
            ~is_parse_error:(function Obs.Json.Parse_error _ -> true | _ -> false);
          Alcotest.test_case "directed hostile inputs" `Quick json_directed;
        ] );
      ( "differential",
        [
          differential "aiger reader = reference" ~generate:random_aiger
            ~agree:aiger_agree;
          differential "sequential aiger reader = reference"
            ~generate:random_sequential_aiger ~agree:aiger_agree;
          differential "blif reader = reference" ~generate:random_blif ~agree:blif_agree;
          aiger_writer_matches_printf;
          Alcotest.test_case "aiger writer, empty network" `Quick aiger_writer_empty;
          json_string_roundtrip;
          Alcotest.test_case "hostile integers" `Quick hostile_integers;
          Alcotest.test_case "blif directed cases" `Quick blif_directed;
        ] );
    ]

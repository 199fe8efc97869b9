module K = Network
module T = Tt.Truth_table
module Vec = Sutil.Vec

exception Parse_error of string

let fail_at line fmt =
  Printf.ksprintf
    (fun s -> raise (Parse_error (Printf.sprintf "line %d: %s" line s)))
    fmt

(* Robustness-test hook: randomly truncate the raw text before parsing. *)
let fault_truncate = Obs.Fault.register "parse.truncate"

(* A [.names] block with [k] inputs materializes a 2^k-bit truth table;
   cap [k] so hostile input cannot demand gigabytes. Legitimate k-LUT
   networks in this repo use k <= 16. *)
let max_lut_fanins = 20

(* ---- writing ---- *)

let write net =
  let buf = Buffer.create 4096 in
  let name n =
    if K.is_pi net n then Printf.sprintf "pi%d" (K.pi_index net n)
    else Printf.sprintf "n%d" n
  in
  Buffer.add_string buf ".model klut\n";
  Buffer.add_string buf ".inputs";
  for i = 0 to K.num_pis net - 1 do
    Buffer.add_string buf (Printf.sprintf " pi%d" i)
  done;
  Buffer.add_string buf "\n.outputs";
  for o = 0 to K.num_pos net - 1 do
    Buffer.add_string buf (Printf.sprintf " po%d" o)
  done;
  Buffer.add_char buf '\n';
  K.iter_luts net (fun nd ->
      let fanins = K.fanins net nd in
      let f = K.func net nd in
      Buffer.add_string buf ".names";
      Array.iter (fun fi -> Buffer.add_string buf (" " ^ name fi)) fanins;
      Buffer.add_string buf (" " ^ name nd);
      Buffer.add_char buf '\n';
      (* On-set rows, one minterm per line (no cover minimization). *)
      let k = Array.length fanins in
      for i = 0 to (1 lsl k) - 1 do
        if T.get f i then begin
          for j = 0 to k - 1 do
            Buffer.add_char buf (if (i lsr j) land 1 = 1 then '1' else '0')
          done;
          Buffer.add_string buf " 1\n"
        end
      done);
  for o = 0 to K.num_pos net - 1 do
    let nd, compl = K.po net o in
    (* Output buffer/inverter as a 1-input .names. *)
    Buffer.add_string buf (Printf.sprintf ".names %s po%d\n" (name nd) o);
    Buffer.add_string buf (if compl then "0 1\n" else "1 1\n")
  done;
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let write_file path net =
  Out_channel.with_open_bin path (fun oc -> output_string oc (write net))

(* ---- reading ---- *)

(* [String.trim]'s whitespace, less the line break. *)
let is_blank = function ' ' | '\t' | '\r' | '\012' -> true | _ -> false

(* In-word projection masks of table variables 0..4: variable [j] is true
   at the bits whose index has bit [j] set. *)
let var_masks = [| 0xAAAAAAAA; 0xCCCCCCCC; 0xF0F0F0F0; 0xFF00FF00; 0xFFFF0000 |]

(* An open [.names] block. Its fanins are resolved when it opens (cover
   rows define no signals); its table fills row by row. A defect (an
   undefined fanin, a malformed or mixed row) is kept and reported at the
   block's line when the block closes. *)
type block = {
  line : int;
  fanins : int array;
  out : string;
  words : int array; (* the on-set rows' cubes, 32 table bits a word *)
  mutable value : int; (* the rows' output value; -1 before any row *)
  mutable rows : int;
  mutable defect : string option;
}

let read text =
  let text = Obs.Fault.truncate fault_truncate text in
  let n = String.length text in
  (* The current logical line: number [ln], its tokens as (start, stop)
     pairs in [toks]. [pos] is where the next physical line starts (n + 1
     past the last) and [lnum] counts the physical lines read. *)
  let toks = Vec.create () and ln = ref 0 and pos = ref 0 and lnum = ref 0 in
  let nt () = Vec.length toks / 2 in
  let tok_start k = Vec.get toks (2 * k) in
  let tok k = String.sub text (tok_start k) (Vec.get toks ((2 * k) + 1) - tok_start k) in
  (* Reads one physical line and adds the tokens (runs of anything but
     spaces and tabs) of its trimmed part before any '#'. Returns whether
     that part is not empty. *)
  let physical () =
    let e = ref !pos in
    while !e < n && text.[!e] <> '\n' && text.[!e] <> '#' do incr e done;
    let lo = ref !pos and hi = ref !e in
    while !e < n && text.[!e] <> '\n' do incr e done;
    pos := !e + 1;
    incr lnum;
    while !lo < !hi && is_blank text.[!lo] do incr lo done;
    while !hi > !lo && is_blank text.[!hi - 1] do decr hi done;
    let i = ref !lo in
    while !i < !hi do
      if text.[!i] = ' ' || text.[!i] = '\t' then incr i
      else begin
        Vec.push toks !i;
        while !i < !hi && text.[!i] <> ' ' && text.[!i] <> '\t' do incr i done;
        Vec.push toks !i
      end
    done;
    !lo < !hi
  in
  let last_is f = Vec.length toks > 0 && f text.[Vec.top toks - 1] in
  (* Drops the last byte of the last token, and the token once empty. *)
  let chop () =
    let k = Vec.length toks - 1 in
    Vec.set toks k (Vec.get toks k - 1);
    if Vec.get toks k = Vec.get toks (k - 1) then Vec.shrink toks (k - 1)
  in
  (* Reads the next logical line. A line ending in a backslash continues
     on the next physical line, and the joined line is trimmed again
     where that one is empty, as [String.trim (head ^ " " ^ next)]. *)
  let logical () =
    Vec.clear toks;
    ln := !lnum + 1;
    ignore (physical ());
    let last = ref false in
    while (not !last) && last_is (fun c -> c = '\\') do
      chop ();
      last := !pos > n;
      if !last || not (physical ()) then
        while last_is is_blank do chop () done
    done
  in
  let line () = String.concat " " (List.init (nt ()) tok) in
  let net = K.create () in
  let signals : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let outputs = ref [] and pending = ref None in
  let flush () =
    Option.iter
      (fun b ->
        pending := None;
        Option.iter (fun msg -> fail_at b.line "%s" msg) b.defect;
        let k = Array.length b.fanins in
        let f =
          if k = 0 then if b.value = 1 then T.const1 0 else T.const0 0
          else T.of_words k (if b.value = 0 then Array.map lnot b.words else b.words)
        in
        Hashtbl.replace signals b.out (K.add_lut net b.fanins f))
      !pending
  in
  let open_block () =
    let k = nt () - 2 in
    if k > max_lut_fanins then
      fail_at !ln ".names block with %d inputs exceeds the %d-input limit" k
        max_lut_fanins;
    let defect = ref None in
    let fanin j =
      match Hashtbl.find_opt signals (tok (j + 1)) with
      | Some nd -> nd
      | None ->
        if Option.is_none !defect then defect := Some ("undefined signal " ^ tok (j + 1));
        0
    in
    let fanins = Array.init k fanin in
    let words = Array.make (if k <= 5 then 1 else 1 lsl (k - 5)) 0 in
    pending :=
      Some { line = !ln; fanins; out = tok (k + 1); words; value = -1; rows = 0; defect = !defect }
  in
  (* ORs the cube of the mask at [text.[a ..]] into the block's table:
     mask characters of variables 0..4 narrow an in-word mask, those of
     variables 5 and up pick the words. *)
  let add_cube b a =
    let k = Array.length b.fanins in
    let inword = ref (if k >= 5 then 0xFFFFFFFF else (1 lsl (1 lsl k)) - 1) in
    let base = ref 0 and free = ref 0 and bad = ref None in
    for j = 0 to k - 1 do
      match text.[a + j] with
      | '1' when j < 5 -> inword := !inword land var_masks.(j)
      | '0' when j < 5 -> inword := !inword land lnot var_masks.(j)
      | '1' -> base := !base lor (1 lsl (j - 5))
      | '-' when j >= 5 -> free := !free lor (1 lsl (j - 5))
      | '0' | '-' -> ()
      | c -> if Option.is_none !bad then bad := Some c
    done;
    match !bad with
    | Some c -> b.defect <- Some (Printf.sprintf "bad cover character %C" c)
    | None ->
      (* every word index that agrees with [base] off the free bits *)
      let rec fill s =
        b.words.(!base lor s) <- b.words.(!base lor s) lor !inword;
        if s <> 0 then fill ((s - 1) land !free)
      in
      fill !free
  in
  let row b =
    let v = tok_start (nt () - 1) in
    let value =
      match if Vec.top toks = v + 1 then text.[v] else ' ' with
      | '1' -> 1
      | '0' -> 0
      | _ when nt () = 1 -> fail_at !ln "bad cover row: %s" (line ())
      | _ -> fail_at !ln "bad cover output: %s" (line ())
    in
    b.rows <- b.rows + 1;
    let defect msg = if Option.is_none b.defect then b.defect <- Some msg in
    let width = if nt () = 2 then Vec.get toks 1 - tok_start 0 else 0 in
    if Array.length b.fanins = 0 then
      (* a constant block: one row, just an output value *)
      if b.rows > 1 || width > 0 then defect "bad constant .names block"
      else b.value <- value
    else begin
      if b.value < 0 then b.value <- value
      else if b.value <> value then defect "mixed on-set and off-set rows in one .names block";
      if width <> Array.length b.fanins then defect "cover row width mismatch"
      else if Option.is_none b.defect then add_cube b (tok_start 0)
    end
  in
  while !pos <= n do
    logical ();
    if nt () > 0 then
      (* Only a keyword is copied out of the text; cover rows are not. *)
      match if text.[tok_start 0] = '.' then tok 0 else "" with
      | ".model" -> ()
      | ".inputs" ->
        flush ();
        for j = 1 to nt () - 1 do
          let s = tok j in
          if Hashtbl.mem signals s then fail_at !ln "duplicate input %s" s;
          Hashtbl.replace signals s (K.add_pi net)
        done
      | ".outputs" ->
        flush ();
        for j = 1 to nt () - 1 do
          outputs := (!ln, tok j) :: !outputs
        done
      | ".names" ->
        flush ();
        if nt () = 1 then fail_at !ln ".names without signals";
        open_block ()
      | ".end" when nt () = 1 -> flush ()
      | ".latch" | ".subckt" | ".gate" -> fail_at !ln "unsupported construct: %s" (line ())
      | _ -> (
        match !pending with
        | Some b when nt () <= 2 -> row b
        | _ -> fail_at !ln "unrecognized line: %s" (line ()))
  done;
  flush ();
  List.iter
    (fun (ln, s) ->
      match Hashtbl.find_opt signals s with
      | Some nd -> ignore (K.add_po net nd false)
      | None -> fail_at ln "undefined output %s" s)
    (List.rev !outputs);
  net

let read_file path = read (In_channel.with_open_bin path In_channel.input_all)

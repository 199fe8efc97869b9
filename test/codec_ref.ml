(* Reference codecs for the differential tests: the list-based AIGER and
   BLIF readers, the [Printf] AIGER writer and the per-byte JSON string
   escaper that the single-scan codecs replaced. They are kept verbatim
   (less the fault hook), so that the new codecs can be checked against
   them on random and mutated inputs: the same network or a parse error
   at the same line, and the same bytes written. *)

module A = Aig.Network
module L = Aig.Lit

module Aiger = struct
  exception Parse_error of string

  let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

  let fail_at line fmt =
    Printf.ksprintf
      (fun s -> raise (Parse_error (Printf.sprintf "line %d: %s" line s)))
      fmt

  let max_header_field = 1 lsl 30

  let read_gen ~allow_latches text =
    let lines =
      String.split_on_char '\n' text
      |> List.mapi (fun i l -> (i + 1, l))
      |> List.filter (fun (_, l) ->
             String.trim l <> ""
             && not (String.length l > 0 && l.[0] = 'c'))
    in
    match lines with
    | [] -> fail "line 1: empty file"
    | (hline, header) :: rest ->
      let ints_of_line (ln, line) =
        String.split_on_char ' ' line
        |> List.filter (fun s -> s <> "")
        |> List.map (fun s ->
               match int_of_string_opt s with
               | Some v -> v
               | None -> fail_at ln "not an integer: %s" s)
      in
      let m, i, l, o, a =
        match String.split_on_char ' ' (String.trim header) with
        | [ "aag"; m; i; l; o; a ] ->
          let p s =
            match int_of_string_opt s with
            | Some v when v >= 0 && v <= max_header_field -> v
            | Some v -> fail_at hline "header field out of range: %d" v
            | None -> fail_at hline "bad header field %s" s
          in
          (p m, p i, p l, p o, p a)
        | _ -> fail_at hline "bad header: %s" header
      in
      if l <> 0 && not allow_latches then fail_at hline "latches are not supported";
      if m > i + l + a then
        fail_at hline "header declares %d variables but only %d definitions" m
          (i + l + a);
      let expected_lines = i + l + o + a in
      let body = List.filteri (fun idx _ -> idx < expected_lines) rest in
      if List.length body < expected_lines then fail "truncated file";
      let net = A.create ~capacity:(m + 1) () in
      (* node_of_var.(v) = our node id for AIGER variable v *)
      let node_of_var = Array.make (m + 1) (-1) in
      node_of_var.(0) <- 0;
      (* node_of_var entries: -1 undefined; >= 0 a plain node id; <= -2 a
         definition that structural hashing collapsed to the literal
         [-(entry + 2)]. *)
      let tr ln lit =
        let v = lit lsr 1 in
        (* negative [lit] also lands here: lsr maps it above [m] *)
        if v > m then fail_at ln "literal %d out of range" lit;
        let n = node_of_var.(v) in
        if n = -1 then fail_at ln "forward or undefined reference to variable %d" v
        else if n <= -2 then L.xor_compl (-(n + 2)) (lit land 1 = 1)
        else L.of_node n (lit land 1 = 1)
      in
      let rec take k xs =
        if k = 0 then ([], xs)
        else
          match xs with
          | [] -> fail "truncated"
          | x :: rest ->
            let a, b = take (k - 1) rest in
            (x :: a, b)
      in
      let inputs, rest1 = take i body in
      let latches, rest2 = take l rest1 in
      let outputs, ands = take o rest2 in
      let define_pi ln lit =
        if lit land 1 = 1 || lit <= 0 || lit lsr 1 > m then
          fail_at ln "bad input literal %d" lit;
        if node_of_var.(lit lsr 1) <> -1 then fail_at ln "redefinition of %d" lit;
        node_of_var.(lit lsr 1) <- L.node (A.add_pi net)
      in
      List.iter
        (fun ((ln, raw) as line) ->
          match ints_of_line line with
          | [ lit ] -> define_pi ln lit
          | _ -> fail_at ln "bad input line: %s" raw)
        inputs;
      (* Latch outputs become extra PIs; next-state literals are collected
         and emitted as extra POs after the real ones. *)
      let next_states =
        List.map
          (fun ((ln, raw) as line) ->
            match ints_of_line line with
            | [ q; next ] ->
              define_pi ln q;
              (ln, next)
            | _ -> fail_at ln "bad latch line: %s" raw)
          latches
      in
      List.iter
        (fun ((ln, raw) as line) ->
          match ints_of_line line with
          | [ out; f0; f1 ] ->
            if out land 1 = 1 || out <= 0 || out lsr 1 > m then
              fail_at ln "bad AND literal %d" out;
            let lit = A.add_and net (tr ln f0) (tr ln f1) in
            (* Structural hashing may simplify; record whatever literal the
               definition resolves to. A complemented result is legal. *)
            if node_of_var.(out lsr 1) >= 0 then fail_at ln "redefinition of %d" out;
            if L.is_compl lit then node_of_var.(out lsr 1) <- -2 - lit
            else node_of_var.(out lsr 1) <- L.node lit
          | _ -> fail_at ln "bad AND line: %s" raw)
        ands;
      List.iter
        (fun ((ln, raw) as line) ->
          match ints_of_line line with
          | [ lit ] -> ignore (A.add_po net (tr ln lit))
          | _ -> fail_at ln "bad output line: %s" raw)
        outputs;
      List.iter
        (fun (ln, next) -> ignore (A.add_po net (tr ln next)))
        next_states;
      (net, l)

  let read text = fst (read_gen ~allow_latches:false text)
  let read_sequential text = read_gen ~allow_latches:true text

  let write net =
    let buf = Buffer.create 4096 in
    let m = A.num_nodes net - 1 in
    Buffer.add_string buf
      (Printf.sprintf "aag %d %d 0 %d %d\n" m (A.num_pis net)
         (A.num_pos net) (A.num_ands net));
    for i = 0 to A.num_pis net - 1 do
      Buffer.add_string buf (Printf.sprintf "%d\n" (L.of_node (A.pi_node net i) false))
    done;
    Array.iter
      (fun l -> Buffer.add_string buf (Printf.sprintf "%d\n" (l : int)))
      (A.pos net);
    A.iter_ands net (fun n ->
        Buffer.add_string buf
          (Printf.sprintf "%d %d %d\n"
             (L.of_node n false)
             (A.fanin0 net n) (A.fanin1 net n)));
    Buffer.contents buf
end

module Blif = struct
  module K = Klut.Network
  module T = Tt.Truth_table

  exception Parse_error of string

  let fail_at line fmt =
    Printf.ksprintf
      (fun s -> raise (Parse_error (Printf.sprintf "line %d: %s" line s)))
      fmt

  let max_lut_fanins = 20

  type cover_row = { mask : string; value : bool }

  let tt_of_cover ~ln k rows =
    (* Rows are in on-set or off-set form; BLIF requires uniform output
       values within one block. *)
    match rows with
    | [] -> T.const0 k
    | { value = v0; _ } :: _ ->
      if not (List.for_all (fun r -> r.value = v0) rows) then
        fail_at ln "mixed on-set and off-set rows in one .names block";
      let covered = ref (T.const0 k) in
      List.iter
        (fun { mask; _ } ->
          if String.length mask <> k then fail_at ln "cover row width mismatch";
          let cube = ref (T.const1 k) in
          String.iteri
            (fun j c ->
              match c with
              | '1' -> cube := T.and_ !cube (T.nth_var k j)
              | '0' -> cube := T.and_ !cube (T.not_ (T.nth_var k j))
              | '-' -> ()
              | _ -> fail_at ln "bad cover character %C" c)
            mask;
          covered := T.or_ !covered !cube)
        rows;
      if v0 then !covered else T.not_ !covered

  (* A .names block with no input columns defines a constant. *)
  let constant_block ~ln rows =
    match rows with
    | [] -> false
    | [ { mask = ""; value } ] -> value
    | _ -> fail_at ln "bad constant .names block"

  let read text =
    (* Number physical lines 1-based, strip comments, then join
       continuation lines (trailing backslash) under the first line's
       number so diagnostics point at the start of the construct. *)
    let physical =
      String.split_on_char '\n' text
      |> List.mapi (fun i l ->
             let l =
               match String.index_opt l '#' with
               | Some j -> String.sub l 0 j
               | None -> l
             in
             (i + 1, String.trim l))
    in
    let lines =
      let rec join acc = function
        | [] -> List.rev acc
        | (ln, l) :: rest ->
          let rec absorb l rest =
            let k = String.length l in
            if k > 0 && l.[k - 1] = '\\' then
              let head = String.sub l 0 (k - 1) in
              match rest with
              | (_, l2) :: rest2 -> absorb (String.trim (head ^ " " ^ l2)) rest2
              | [] -> (String.trim head, [])
            else (l, rest)
          in
          let joined, rest = absorb l rest in
          if joined = "" then join acc rest else join ((ln, joined) :: acc) rest
      in
      join [] physical
    in
    let net = K.create () in
    let signals : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let outputs = ref [] in
    let pending : (int * string list * string * cover_row list) option ref =
      ref None
    in
    let flush_pending () =
      match !pending with
      | None -> ()
      | Some (ln, inputs, out, rows_rev) ->
        pending := None;
        let rows = List.rev rows_rev in
        let node =
          match inputs with
          | [] ->
            (* constant *)
            let v = constant_block ~ln rows in
            let k = K.add_lut net [||] (if v then T.const1 0 else T.const0 0) in
            k
          | _ ->
            let fanins =
              Array.of_list
                (List.map
                   (fun s ->
                     match Hashtbl.find_opt signals s with
                     | Some n -> n
                     | None -> fail_at ln "undefined signal %s" s)
                   inputs)
            in
            K.add_lut net fanins (tt_of_cover ~ln (Array.length fanins) rows)
        in
        Hashtbl.replace signals out node
    in
    let words l =
      String.split_on_char ' ' l
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun s -> s <> "")
    in
    List.iter
      (fun (ln, line) ->
        match words line with
        | ".model" :: _ -> ()
        | ".inputs" :: names ->
          flush_pending ();
          List.iter
            (fun s ->
              if Hashtbl.mem signals s then fail_at ln "duplicate input %s" s;
              Hashtbl.replace signals s (K.add_pi net))
            names
        | ".outputs" :: names ->
          flush_pending ();
          outputs := !outputs @ List.map (fun s -> (ln, s)) names
        | ".names" :: rest ->
          flush_pending ();
          (match List.rev rest with
           | out :: inputs_rev ->
             let inputs = List.rev inputs_rev in
             if List.length inputs > max_lut_fanins then
               fail_at ln ".names block with %d inputs exceeds the %d-input limit"
                 (List.length inputs) max_lut_fanins;
             pending := Some (ln, inputs, out, [])
           | [] -> fail_at ln ".names without signals")
        | [ ".end" ] -> flush_pending ()
        | (".latch" | ".subckt" | ".gate") :: _ ->
          fail_at ln "unsupported construct: %s" line
        | [ single ] when !pending <> None ->
          (* constant block row: just an output value *)
          (match !pending with
           | Some (bln, inputs, out, rows) ->
             let value =
               match single with
               | "1" -> true
               | "0" -> false
               | _ -> fail_at ln "bad cover row: %s" line
             in
             pending := Some (bln, inputs, out, { mask = ""; value } :: rows)
           | None -> assert false)
        | [ mask; v ] when !pending <> None ->
          (match !pending with
           | Some (bln, inputs, out, rows) ->
             let value =
               match v with
               | "1" -> true
               | "0" -> false
               | _ -> fail_at ln "bad cover output: %s" line
             in
             pending := Some (bln, inputs, out, { mask; value } :: rows)
           | None -> assert false)
        | _ -> fail_at ln "unrecognized line: %s" line)
      lines;
    flush_pending ();
    List.iter
      (fun (ln, s) ->
        match Hashtbl.find_opt signals s with
        | Some n -> ignore (K.add_po net n false)
        | None -> fail_at ln "undefined output %s" s)
      !outputs;
    net
end

module Json = struct
  let escape_string b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | '\b' -> Buffer.add_string b "\\b"
        | '\012' -> Buffer.add_string b "\\f"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
end

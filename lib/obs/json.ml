type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Shortest decimal repr that parses back to the same IEEE double; force
   a '.' or 'e' into it so the parser reads it back as Float, not Int. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else begin
    let s15 = Printf.sprintf "%.15g" f in
    let s = if float_of_string s15 = f then s15 else Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"
  end

(* Copies the runs between the bytes that need escaping in one blit
   each. *)
let escape_string b s =
  Buffer.add_char b '"';
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = s.[i] in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring b s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c ->
        Buffer.add_string b "\\u00";
        Buffer.add_char b "0123456789abcdef".[Char.code c lsr 4];
        Buffer.add_char b "0123456789abcdef".[Char.code c land 15]
    end
  done;
  Buffer.add_substring b s !run (String.length s - !run);
  Buffer.add_char b '"'

let to_string ?(pretty = false) v =
  let b = Buffer.create 256 in
  let pad depth = if pretty then Buffer.add_string b (String.make (2 * depth) ' ') in
  let nl () = if pretty then Buffer.add_char b '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | String s -> escape_string b s
    | List [] -> Buffer.add_string b "[]"
    | List xs ->
      Buffer.add_char b '[';
      nl ();
      List.iteri
        (fun i x ->
          if i > 0 then begin Buffer.add_char b ','; nl () end;
          pad (depth + 1);
          go (depth + 1) x)
        xs;
      nl ();
      pad depth;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
      Buffer.add_char b '{';
      nl ();
      List.iteri
        (fun i (k, x) ->
          if i > 0 then begin Buffer.add_char b ','; nl () end;
          pad (depth + 1);
          escape_string b k;
          Buffer.add_string b (if pretty then ": " else ":");
          go (depth + 1) x)
        kvs;
      nl ();
      pad depth;
      Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

let to_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string ~pretty:true v);
      output_char oc '\n')

exception Parse_error of int * string

(* Hostile-input bound: the recursive-descent parser consumes stack
   proportional to the nesting depth, so an adversarial "[[[[..." frame
   on the cache/wire path would otherwise be a Stack_overflow crash
   instead of a typed parse error. 512 is far beyond any report. *)
let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    (* By hand, not [int_of_string "0x..."]: that accepts '_' and raises
       Failure (not Parse_error) on anything else — a crash on hostile
       input like "\uZZZZ". *)
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v lsl 4) lor d;
      advance ()
    done;
    !v
  in
  (* The end of the run of plain string bytes from [i]. *)
  let rec run_end i =
    if i >= n then begin
      pos := n;
      fail "unterminated string"
    end
    else if s.[i] = '"' || s.[i] = '\\' then i
    else run_end (i + 1)
  in
  (* The runs between escapes are copied whole. *)
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      let e = run_end !pos in
      Buffer.add_substring b s !pos (e - !pos);
      pos := e + 1;
      if s.[e] = '\\' then begin
        (match peek () with
         | Some '"' -> Buffer.add_char b '"'; advance ()
         | Some '\\' -> Buffer.add_char b '\\'; advance ()
         | Some '/' -> Buffer.add_char b '/'; advance ()
         | Some 'n' -> Buffer.add_char b '\n'; advance ()
         | Some 'r' -> Buffer.add_char b '\r'; advance ()
         | Some 't' -> Buffer.add_char b '\t'; advance ()
         | Some 'b' -> Buffer.add_char b '\b'; advance ()
         | Some 'f' -> Buffer.add_char b '\012'; advance ()
         | Some 'u' ->
           advance ();
           let cp = hex4 () in
           (* UTF-8 encode; surrogate pairs are not combined. *)
           if cp < 0x80 then Buffer.add_char b (Char.chr cp)
           else if cp < 0x800 then begin
             Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
             Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
           end
           else begin
             Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
             Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
             Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
           end
         | _ -> fail "bad escape");
        go ()
      end
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when number_char c -> true | _ -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok in
    if is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail ("bad number " ^ tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        (* integer token too wide for int: keep the value as a float *)
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail ("bad number " ^ tok))
  in
  let rec parse_value depth =
    skip_ws ();
    if depth > max_depth then fail "nesting too deep";
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); List [] end
      else begin
        let rec elements acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (v :: acc)
          | Some ']' -> advance (); List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let of_string s =
  match parse s with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
    Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

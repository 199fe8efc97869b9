module J = Obs.Json

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let max_frame_bytes = 64 * 1024 * 1024

(* ---- framing ---- *)

let read_frame ic =
  (* Clean EOF is only an EOF {e before} the first header byte; dying
     anywhere inside a frame is a protocol error. [really_input] cannot
     tell the two apart, so the first byte is read separately. *)
  match input_char ic with
  | exception End_of_file -> None
  | b0 ->
    let hdr = Bytes.create 4 in
    Bytes.set hdr 0 b0;
    (try really_input ic hdr 1 3
     with End_of_file -> fail "truncated frame header");
    let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if len < 0 || len > max_frame_bytes then
      fail "frame length %d out of range (max %d)" len max_frame_bytes;
    let payload = Bytes.create len in
    (try really_input ic payload 0 len
     with End_of_file -> fail "truncated frame: %d bytes announced" len);
    Some (Bytes.unsafe_to_string payload)

let write_frame oc payload =
  let len = String.length payload in
  if len > max_frame_bytes then
    fail "frame length %d out of range (max %d)" len max_frame_bytes;
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int len);
  output_bytes oc hdr;
  output_string oc payload;
  flush oc

(* Fd-level framing for the server: its accept loop multiplexes
   connections with [select], and a buffering [in_channel] on top of
   the same fd would make "readable" lie (frames already slurped into
   the buffer look like an idle socket). Channels remain the right
   interface for clients, which do one blocking round-trip. *)

let rec really_read fd buf ofs len =
  if len > 0 then
    match Unix.read fd buf ofs len with
    | 0 -> raise End_of_file
    | n -> really_read fd buf (ofs + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      really_read fd buf ofs len

let read_frame_fd fd =
  let hdr = Bytes.create 4 in
  let first =
    match Unix.read fd hdr 0 1 with
    | 0 -> None
    | _ -> Some ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> (
      match Unix.read fd hdr 0 1 with 0 -> None | _ -> Some ())
  in
  match first with
  | None -> None
  | Some () ->
    (try really_read fd hdr 1 3
     with End_of_file -> fail "truncated frame header");
    let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if len < 0 || len > max_frame_bytes then
      fail "frame length %d out of range (max %d)" len max_frame_bytes;
    let payload = Bytes.create len in
    (try really_read fd payload 0 len
     with End_of_file -> fail "truncated frame: %d bytes announced" len);
    Some (Bytes.unsafe_to_string payload)

let write_frame_fd fd payload =
  let len = String.length payload in
  if len > max_frame_bytes then
    fail "frame length %d out of range (max %d)" len max_frame_bytes;
  let buf = Bytes.create (4 + len) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.blit_string payload 0 buf 4 len;
  let rec push ofs remaining =
    if remaining > 0 then
      match Unix.write fd buf ofs remaining with
      | n -> push (ofs + n) (remaining - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> push ofs remaining
  in
  push 0 (4 + len)

(* ---- field access ---- *)

let field what j name =
  match J.member name j with
  | Some v -> v
  | None -> fail "%s: missing field '%s'" what name

let string_field what j name =
  match field what j name with
  | J.String s -> s
  | _ -> fail "%s field '%s': expected a string" what name

let int_field what j name =
  match field what j name with
  | J.Int i -> i
  | _ -> fail "%s field '%s': expected an integer" what name

let bool_field_opt what j name ~default =
  match J.member name j with
  | None | Some J.Null -> default
  | Some (J.Bool b) -> b
  | Some _ -> fail "%s field '%s': expected a boolean" what name

let float_field_opt what j name =
  match J.member name j with
  | None | Some J.Null -> None
  | Some v -> (
    match J.to_float v with
    | Some f -> Some f
    | None -> fail "%s field '%s': expected a number" what name)

(* ---- request ---- *)

type request = {
  req_id : int;
  script : string;
  aiger : string;
  req_timeout : float option;
  req_verify : bool;
  req_certify : bool;
}

let request_to_json r =
  J.Obj
    ([
       ("id", J.Int r.req_id);
       ("script", J.String r.script);
       ("aiger", J.String r.aiger);
     ]
    @ (match r.req_timeout with
      | None -> []
      | Some s -> [ ("timeout_s", J.Float s) ])
    @ [ ("verify", J.Bool r.req_verify); ("certify", J.Bool r.req_certify) ])

let request_of_json j =
  let w = "request" in
  {
    req_id = int_field w j "id";
    script = string_field w j "script";
    aiger = string_field w j "aiger";
    req_timeout = float_field_opt w j "timeout_s";
    req_verify = bool_field_opt w j "verify" ~default:false;
    req_certify = bool_field_opt w j "certify" ~default:false;
  }

(* ---- client messages ---- *)

(* A frame from a client is either a run request (the original
   protocol, no "op" field — old clients keep working unchanged) or an
   operational query tagged by "op". *)
type client_msg = M_run of request | M_health of { h_id : int }

let client_msg_to_json = function
  | M_run r -> request_to_json r
  | M_health { h_id } -> J.Obj [ ("id", J.Int h_id); ("op", J.String "health") ]

let client_msg_of_json j =
  match J.member "op" j with
  | None | Some J.Null -> M_run (request_of_json j)
  | Some (J.String "health") ->
    M_health { h_id = int_field "health request" j "id" }
  | Some (J.String other) ->
    fail "request field 'op': unknown operation '%s'" other
  | Some _ -> fail "request field 'op': expected a string"

(* ---- response ---- *)

type response =
  | R_ok of { rsp_id : int; report : Obs.Json.t }
  | R_error of { rsp_id : int; kind : string; message : string }
  | R_overloaded of { rsp_id : int; retry_after_s : float }
  | R_health of { rsp_id : int; health : Obs.Json.t }

let response_to_json = function
  | R_ok { rsp_id; report } ->
    J.Obj [ ("id", J.Int rsp_id); ("status", J.String "ok"); ("report", report) ]
  | R_error { rsp_id; kind; message } ->
    J.Obj
      [
        ("id", J.Int rsp_id);
        ("status", J.String "error");
        ("kind", J.String kind);
        ("message", J.String message);
      ]
  | R_overloaded { rsp_id; retry_after_s } ->
    J.Obj
      [
        ("id", J.Int rsp_id);
        ("status", J.String "overloaded");
        ("retry_after_s", J.Float retry_after_s);
      ]
  | R_health { rsp_id; health } ->
    J.Obj
      [ ("id", J.Int rsp_id); ("status", J.String "health"); ("health", health) ]

let response_of_json j =
  let w = "response" in
  let id = int_field w j "id" in
  match string_field w j "status" with
  | "ok" -> R_ok { rsp_id = id; report = field w j "report" }
  | "error" ->
    R_error
      {
        rsp_id = id;
        kind = string_field w j "kind";
        message = string_field w j "message";
      }
  | "overloaded" ->
    R_overloaded
      {
        rsp_id = id;
        retry_after_s =
          (match float_field_opt w j "retry_after_s" with
          | Some f -> f
          | None -> fail "%s: missing field 'retry_after_s'" w);
      }
  | "health" -> R_health { rsp_id = id; health = field w j "health" }
  | other -> fail "%s field 'status': unknown value '%s'" w other

(* ---- channel helpers ---- *)

let parse_payload s =
  match J.parse s with
  | v -> v
  | exception J.Parse_error (at, msg) ->
    fail "frame payload: JSON parse error at offset %d: %s" at msg

let write_request oc r = write_frame oc (J.to_string (request_to_json r))

let read_response ic =
  Option.map (fun s -> response_of_json (parse_payload s)) (read_frame ic)

let request_of_string s = request_of_json (parse_payload s)
let client_msg_of_string s = client_msg_of_json (parse_payload s)
let write_client_msg oc m = write_frame oc (J.to_string (client_msg_to_json m))
let response_to_string r = J.to_string (response_to_json r)

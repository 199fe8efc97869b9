(** Wire protocol of the sweep service: length-prefixed JSON frames.

    A frame is a 4-byte big-endian payload length followed by that many
    bytes of JSON — one {!request} or {!response} per frame, several
    frames per connection. JSON keeps the payloads greppable and
    versionable; the binary length prefix makes framing unambiguous
    without any in-band escaping (AIGER payloads travel inside JSON
    strings, which the {!Obs.Json} codec round-trips byte-exactly).

    Every way a frame can be malformed — truncated length, truncated
    payload, an oversized length announcing a memory bomb, hostile
    JSON, a missing or mistyped field — raises the one typed
    {!Parse_error}, with a message locating the offending field. The
    server maps it to a ["parse_error"] response (or drops the
    connection when the stream itself is unusable); the process never
    dies on input. *)

exception Parse_error of string

val max_frame_bytes : int
(** Frames larger than this (64 MiB) are rejected before allocation —
    a length prefix is attacker-controlled input. *)

type request = {
  req_id : int;  (** echoed verbatim in the response *)
  script : string;  (** PR 5 pipeline script, e.g. ["sweep -e stp; verify"] *)
  aiger : string;  (** the input network, ASCII AIGER ([aag]) *)
  req_timeout : float option;
      (** per-request budget in seconds; the server clamps it against
          its own per-request and global budgets *)
  req_verify : bool;  (** engine self-check ({!Sweep.Selfcheck}) *)
  req_certify : bool;  (** DRUP-certified solver answers *)
}

type client_msg =
  | M_run of request
      (** a run request — the original protocol, a frame with no ["op"]
          field, so pre-existing clients need no change *)
  | M_health of { h_id : int }
      (** [{"id": N, "op": "health"}] — an operational query answered
          with {!R_health} without touching the sweep pipeline; cheap
          enough to serve even when the daemon is shedding load *)

type response =
  | R_ok of { rsp_id : int; report : Obs.Json.t }
      (** the request ran; [report] is the schema-2 run report (pass
          records, CEC verdict, result AIGER) *)
  | R_error of { rsp_id : int; kind : string; message : string }
      (** the request failed in isolation. [kind] is one of
          ["parse_error"] (script/AIGER/frame), ["verification_failed"],
          ["internal"]. The connection — and the daemon — live on. *)
  | R_overloaded of { rsp_id : int; retry_after_s : float }
      (** admission control shed this connection: the accept queue is
          beyond its high-water mark (or the daemon is draining). Sent
          with [rsp_id = 0] before the client's first frame is read;
          the connection is then closed. [retry_after_s] is the
          server's backoff hint — {!Client} honors it. *)
  | R_health of { rsp_id : int; health : Obs.Json.t }
      (** answer to {!M_health}; schema documented in EXPERIMENTS.md
          ("health response") *)

val read_frame : in_channel -> string option
(** [None] on clean EOF at a frame boundary; {!Parse_error} on a
    truncated or oversized frame. *)

val write_frame : out_channel -> string -> unit
(** Writes and flushes one frame; {!Parse_error} if the payload exceeds
    {!max_frame_bytes}. *)

val read_frame_fd : Unix.file_descr -> string option
(** Unbuffered [read_frame] straight off a descriptor, for the server:
    its accept loop multiplexes connections with [select], and a
    buffering [in_channel] would make "readable" lie (a frame already
    slurped into the buffer looks like an idle socket). Blocking,
    [EINTR]-safe. *)

val write_frame_fd : Unix.file_descr -> string -> unit

val request_to_json : request -> Obs.Json.t
val request_of_json : Obs.Json.t -> request
(** Raises {!Parse_error} naming the missing/mistyped field. *)

val response_to_json : response -> Obs.Json.t
val response_of_json : Obs.Json.t -> response

val write_request : out_channel -> request -> unit

val read_response : in_channel -> response option
(** Frame + JSON + field decoding in one step; [None] on clean EOF. *)

val client_msg_to_json : client_msg -> Obs.Json.t
val client_msg_of_json : Obs.Json.t -> client_msg
val write_client_msg : out_channel -> client_msg -> unit

val request_of_string : string -> request
(** Decode one frame payload; raises {!Parse_error} on hostile JSON or
    missing/mistyped fields. *)

val client_msg_of_string : string -> client_msg
(** Decode one frame payload as a {!client_msg}; a payload without an
    ["op"] field decodes as {!M_run}. *)

val response_to_string : response -> string

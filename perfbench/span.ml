(* In-memory spans around the benchmark's calls into each layer.

   A span is a named wall-clock interval with a parent (the span open
   when it started) and the id of the operation it belongs to. Spans are
   kept in memory while the run goes and written once, at the end, in
   Chrome trace-event JSON ("X" complete events), which Perfetto and
   chrome://tracing open directly.

   Tracing is off unless [enable] is called: then [with_] is a plain
   call, so an untraced run pays one branch per layer call. *)

type t = {
  id : int;
  parent : int;  (* -1 for the root *)
  op : int;  (* operation id, -1 outside any operation *)
  name : string;
  t0 : float;
  mutable t1 : float;
  mutable args : (string * Obs.Json.t) list;
}

let enabled = ref false
let spans : t list ref = ref []
let next_id = ref 0
let stack : t list ref = ref []

let enable () = enabled := true

let current_op () = match !stack with s :: _ -> s.op | [] -> -1

(* [op] starts a new operation: it and every span beneath it carry the
   id. Without [op] the span inherits its parent's. *)
let with_ ?op name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let s =
      {
        id = !next_id;
        parent;
        op = (match op with Some o -> o | None -> current_op ());
        name;
        t0 = Unix.gettimeofday ();
        t1 = nan;
        args = [];
      }
    in
    incr next_id;
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Unix.gettimeofday ();
        stack := List.tl !stack;
        spans := s :: !spans)
      f
  end

(* Attach data to the span that finished last (no-op when tracing is
   off), e.g. the engine's own report to the call that produced it. *)
let annotate_last kvs =
  match !spans with s :: _ when !enabled -> s.args <- s.args @ kvs | _ -> ()

let finished () = List.rev !spans

let to_chrome ~origin =
  let open Obs.Json in
  let us t = Float ((t -. origin) *. 1e6) in
  Obj
    [
      ( "traceEvents",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("name", String s.name);
                   ("cat", String (List.hd (String.split_on_char '.' s.name)));
                   ("ph", String "X");
                   ("ts", us s.t0);
                   ("dur", Float ((s.t1 -. s.t0) *. 1e6));
                   ("pid", Int 1);
                   ("tid", Int 1);
                   ( "args",
                     Obj
                       ([
                          ("id", Int s.id);
                          ("parent", Int s.parent);
                          ("op", Int s.op);
                        ]
                       @ s.args) );
                 ])
             (finished ())) );
      ("displayTimeUnit", String "ms");
    ]

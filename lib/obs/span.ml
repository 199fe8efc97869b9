type frame = { cell : float ref; start : float; mutable inner : float }

type t = {
  mutable cells : (string * float ref) list;  (* in report order *)
  mutable open_ : frame list;  (* innermost first *)
  mutable total : float;
}

(* A handful of names, passed as literals: a scan that tries physical
   equality first beats hashing the name on every span. *)
let cell t name =
  let rec find = function
    | (k, c) :: _ when k == name || String.equal k name -> c
    | _ :: rest -> find rest
    | [] ->
      let c = ref 0. in
      t.cells <- t.cells @ [ (name, c) ];
      c
  in
  find t.cells

let create names =
  let t = { cells = []; open_ = []; total = 0. } in
  List.iter (fun name -> ignore (cell t name)) names;
  t

let with_ t name f =
  let fr = { cell = cell t name; start = Clock.now (); inner = 0. } in
  t.open_ <- fr :: t.open_;
  Fun.protect f ~finally:(fun () ->
      let dur = Clock.now () -. fr.start in
      fr.cell := !(fr.cell) +. (dur -. fr.inner);
      t.open_ <- List.tl t.open_;
      match t.open_ with
      | up :: _ -> up.inner <- up.inner +. dur
      | [] -> t.total <- t.total +. dur)

let totals t = List.map (fun (k, c) -> (k, !c)) t.cells
let total t = t.total

let on =
  Atomic.make
    (List.mem (Sys.getenv_opt "STP_SWEEP_TRACE")
       [ Some "1"; Some "true"; Some "yes"; Some "on" ])

let enable_trace () = Atomic.set on true
let epoch = Clock.now ()

(* One [write] per line, straight to the descriptor: no channel buffer
   keeps a failed line around, and no two domains' lines interleave. *)
let emit msg =
  let line = Printf.sprintf "[trace +%.3fs] %s\n" (Clock.now () -. epoch) msg in
  try ignore (Unix.write_substring Unix.stderr line 0 (String.length line))
  with Unix.Unix_error _ -> ()

let trace fmt =
  if Atomic.get on then Printf.ksprintf emit fmt
  else Printf.ikfprintf ignore () fmt

let progress t fmt =
  let pair (k, s) = Printf.sprintf " %s=%.3f" k s in
  Printf.ksprintf
    (fun msg -> trace "%s%s" msg (String.concat "" (List.map pair (totals t))))
    fmt

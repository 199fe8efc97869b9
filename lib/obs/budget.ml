type reason = Deadline | Conflicts | Propagations

(* [countdown] and [exhausted] are atomics so solver domains can share
   one budget: any worker's check may trip exhaustion, and the sticky
   flag is immediately visible to every other worker. The countdown
   races benignly — a lost decrement only shifts which call pays the
   clock read. *)
type t = {
  deadline : float option;
  max_conflicts : int option;
  max_propagations : int option;
  stride : int;
  countdown : int Atomic.t; (* check calls until the next clock read *)
  exhausted : reason option Atomic.t;
  (* Internal consumption meters fed by {!charge} deltas. They let one
     budget be shared across callers that each count from zero (the
     pipeline's several sweep passes, the dispatch pool's per-domain
     solvers) and let an [Obs.Pool] lease reclaim unspent allowance at
     release time. *)
  acc_conflicts : int Atomic.t;
  acc_propagations : int Atomic.t;
}

let make ~deadline ~conflicts ~propagations ~stride =
  {
    deadline;
    max_conflicts = conflicts;
    max_propagations = propagations;
    stride = max 1 stride;
    countdown = Atomic.make 0; (* first check reads the clock *)
    exhausted = Atomic.make None;
    acc_conflicts = Atomic.make 0;
    acc_propagations = Atomic.make 0;
  }

let unlimited () =
  make ~deadline:None ~conflicts:None ~propagations:None ~stride:64

let create ?deadline ?timeout ?conflicts ?propagations ?(stride = 64) () =
  let deadline =
    match (deadline, timeout) with
    | (Some _ as d), _ -> d
    | None, Some s -> Some (Clock.now () +. s)
    | None, None -> None
  in
  make ~deadline ~conflicts ~propagations ~stride

let is_limited t =
  t.deadline <> None || t.max_conflicts <> None || t.max_propagations <> None

let deadline t = t.deadline

let remaining_s t =
  match t.deadline with Some d -> Some (d -. Clock.now ()) | None -> None

let exhausted t = Atomic.get t.exhausted

let over cap v = match cap with Some c -> v >= c | None -> false

let check_gen ~force ?(conflicts = 0) ?(propagations = 0) t =
  match Atomic.get t.exhausted with
  | Some _ as r -> r
  | None ->
    let r =
      if over t.max_conflicts conflicts then Some Conflicts
      else if over t.max_propagations propagations then Some Propagations
      else
        match t.deadline with
        | None -> None
        | Some d ->
          let c = Atomic.fetch_and_add t.countdown (-1) in
          if force || c <= 1 then begin
            Atomic.set t.countdown t.stride;
            if Clock.now () > d then Some Deadline else None
          end
          else None
    in
    if r <> None then Atomic.set t.exhausted r;
    r

let check ?conflicts ?propagations t =
  check_gen ~force:false ?conflicts ?propagations t

let check_now ?conflicts ?propagations t =
  check_gen ~force:true ?conflicts ?propagations t

let charge ?(conflicts = 0) ?(propagations = 0) t =
  let c = Atomic.fetch_and_add t.acc_conflicts conflicts + conflicts in
  let p = Atomic.fetch_and_add t.acc_propagations propagations + propagations in
  match Atomic.get t.exhausted with
  | Some _ as r -> r
  | None ->
    let r =
      if over t.max_conflicts c then Some Conflicts
      else if over t.max_propagations p then Some Propagations
      else None
    in
    if r <> None then Atomic.set t.exhausted r;
    r

let consumed t = (Atomic.get t.acc_conflicts, Atomic.get t.acc_propagations)

let reason_to_string = function
  | Deadline -> "deadline"
  | Conflicts -> "conflicts"
  | Propagations -> "propagations"

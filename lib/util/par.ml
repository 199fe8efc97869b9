let split ~chunks n =
  if n <= 0 then [||]
  else begin
    let chunks = max 1 (min chunks n) in
    Array.init chunks (fun i -> (i * n / chunks, (i + 1) * n / chunks))
  end

let reraise_first = function
  | [] -> ()
  | e :: _ -> raise e

let run ~domains f =
  if domains <= 1 then f 0
  else begin
    let spawned =
      Array.init (domains - 1) (fun i -> Domain.spawn (fun () -> f (i + 1)))
    in
    (* Join everything before re-raising so no domain leaks on failure. *)
    let caller = (try f 0; None with e -> Some e) in
    let failures =
      Array.fold_left
        (fun acc d ->
          match Domain.join d with () -> acc | exception e -> e :: acc)
        [] spawned
    in
    (match caller with Some e -> raise e | None -> ());
    reraise_first (List.rev failures)
  end

let for_ranges ~domains n f =
  let ranges = split ~chunks:domains n in
  match Array.length ranges with
  | 0 -> ()
  | 1 ->
    let lo, hi = ranges.(0) in
    f ~lo ~hi
  | k ->
    run ~domains:k (fun i ->
        let lo, hi = ranges.(i) in
        f ~lo ~hi)

module Pool = struct
  type t = {
    domains : int;
    m : Mutex.t;
    work : Condition.t; (* workers sleep here between jobs *)
    idle : Condition.t; (* the caller sleeps here during a job *)
    mutable epoch : int; (* bumped once per posted job *)
    mutable job : (int -> unit) option;
    mutable pending : int; (* workers still inside the current job *)
    mutable failure : exn option;
    mutable stopped : bool;
    mutable workers : unit Domain.t list;
  }

  let worker t idx =
    let seen = ref 0 in
    let rec loop () =
      Mutex.lock t.m;
      while (not t.stopped) && t.epoch = !seen do
        Condition.wait t.work t.m
      done;
      if t.stopped then Mutex.unlock t.m
      else begin
        seen := t.epoch;
        let f = Option.get t.job in
        Mutex.unlock t.m;
        let err = (try f idx; None with e -> Some e) in
        Mutex.lock t.m;
        (match err with
        | Some e when t.failure = None -> t.failure <- Some e
        | _ -> ());
        t.pending <- t.pending - 1;
        if t.pending = 0 then Condition.broadcast t.idle;
        Mutex.unlock t.m;
        loop ()
      end
    in
    loop ()

  let shutdown t =
    Mutex.lock t.m;
    let ws = t.workers in
    t.workers <- [];
    if not t.stopped then begin
      t.stopped <- true;
      Condition.broadcast t.work
    end;
    Mutex.unlock t.m;
    List.iter Domain.join ws

  let create ~domains =
    let domains = max 1 domains in
    let t =
      {
        domains;
        m = Mutex.create ();
        work = Condition.create ();
        idle = Condition.create ();
        epoch = 0;
        job = None;
        pending = 0;
        failure = None;
        stopped = false;
        workers = [];
      }
    in
    for i = 1 to domains - 1 do
      match Domain.spawn (fun () -> worker t i) with
      | d -> t.workers <- d :: t.workers
      | exception e ->
        (* Typically the runtime's domain limit. The workers already
           running would wait for jobs forever and hold their slots, so
           stop and join them before giving up. *)
        shutdown t;
        raise e
    done;
    t

  let domains t = t.domains

  let run t f =
    if t.domains = 1 then f 0
    else begin
      Mutex.lock t.m;
      if t.stopped then begin
        Mutex.unlock t.m;
        invalid_arg "Par.Pool.drain: pool is shut down"
      end;
      t.job <- Some f;
      t.failure <- None;
      t.pending <- t.domains - 1;
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.work;
      Mutex.unlock t.m;
      let caller = (try f 0; None with e -> Some e) in
      Mutex.lock t.m;
      while t.pending > 0 do
        Condition.wait t.idle t.m
      done;
      t.job <- None;
      let worker_failure = t.failure in
      Mutex.unlock t.m;
      match (caller, worker_failure) with
      | Some e, _ | None, Some e -> raise e
      | None, None -> ()
    end

  let drain t n f =
    if n > 0 then
      if t.domains = 1 then
        for i = 0 to n - 1 do
          f ~domain:0 i
        done
      else begin
        (* A single atomic ticket counter is the whole queue: tasks are
           claimed in index order, so a caller that records results into
           slot [i] gets deterministic placement regardless of which
           domain ran the task. *)
        let next = Atomic.make 0 in
        run t (fun domain ->
            let rec go () =
              let i = Atomic.fetch_and_add next 1 in
              if i < n then begin
                f ~domain i;
                go ()
              end
            in
            go ())
      end
end

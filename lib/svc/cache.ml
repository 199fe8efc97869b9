module J = Obs.Json
module E = Sweep.Engine

(* All three sites force the same pessimistic outcome — a miss (or a
   quarantined entry) on the next read. None can fabricate a hit.
   [cache.evict_race] removes the victim out from under the eviction's
   rename, simulating a concurrent remover — the tolerant-ENOENT path
   eviction must survive. *)
let fault_corrupt = Obs.Fault.register "cache.corrupt_entry"
let fault_torn = Obs.Fault.register "cache.torn_write"
let fault_evict_race = Obs.Fault.register "cache.evict_race"

type counters = {
  c_hits : int;
  c_misses : int;
  c_stores : int;
  c_quarantined : int;
  c_evictions : int;
  c_evicted_bytes : int;
}

(* Intrusive LRU list node: one per resident entry, linked
   most-recent-first. The sentinel-free option links keep the code
   short; the list is only ever touched under the cache mutex. *)
type node = {
  n_key : string;
  n_path : string;
  mutable n_size : int;
  mutable n_prev : node option;  (* towards MRU *)
  mutable n_next : node option;  (* towards LRU *)
}

type t = {
  dir : string;
  max_bytes : int option;
  max_entries : int option;
  lock : Mutex.t;
  index : (string, node) Hashtbl.t;
  mutable lru_head : node option;  (* most recently used *)
  mutable lru_tail : node option;  (* eviction victim *)
  mutable total_bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable quarantined : int;
  mutable evictions : int;
  mutable evicted_bytes : int;
  mutable tmp_seq : int;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) (fun () -> f t)

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let tmp_marker = ".tmp."
let quarantine_suffix = ".quarantined"

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let has_suffix suf s =
  String.length s >= String.length suf
  && String.sub s (String.length s - String.length suf) (String.length suf)
     = suf

let iter_fan_files dir f =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun sub ->
        let subdir = Filename.concat dir sub in
        if Sys.is_directory subdir then
          Array.iter (fun name -> f (Filename.concat subdir name))
            (Sys.readdir subdir))
      (Sys.readdir dir)

(* Temp files are writes (or evictions) that never committed — crash
   artifacts by definition, safe to drop. Returns the count for
   {!compact}'s report. *)
let sweep_stale_tmp dir =
  let n = ref 0 in
  iter_fan_files dir (fun path ->
      if has_prefix tmp_marker (Filename.basename path) then
        try
          Sys.remove path;
          incr n
        with _ -> ());
  !n

(* ---- LRU list primitives (call with the lock held) ---- *)

let lru_unlink t n =
  (match n.n_prev with
  | Some p -> p.n_next <- n.n_next
  | None -> t.lru_head <- n.n_next);
  (match n.n_next with
  | Some x -> x.n_prev <- n.n_prev
  | None -> t.lru_tail <- n.n_prev);
  n.n_prev <- None;
  n.n_next <- None

let lru_push_front t n =
  n.n_prev <- None;
  n.n_next <- t.lru_head;
  (match t.lru_head with Some h -> h.n_prev <- Some n | None -> ());
  t.lru_head <- Some n;
  if t.lru_tail = None then t.lru_tail <- Some n

let index_add t key path size =
  (match Hashtbl.find_opt t.index key with
  | Some old ->
    lru_unlink t old;
    Hashtbl.remove t.index key;
    t.total_bytes <- t.total_bytes - old.n_size
  | None -> ());
  let n = { n_key = key; n_path = path; n_size = size; n_prev = None; n_next = None } in
  Hashtbl.replace t.index key n;
  lru_push_front t n;
  t.total_bytes <- t.total_bytes + size

let index_forget t n =
  match Hashtbl.find_opt t.index n.n_key with
  | Some cur when cur == n ->
    Hashtbl.remove t.index n.n_key;
    lru_unlink t n;
    t.total_bytes <- t.total_bytes - n.n_size
  | _ -> ()

(* Evict one entry, crash-safely: rename it to a temp name (atomically
   removing it from the entry namespace — a concurrent reader sees the
   entry or nothing, never a partial state), then remove the temp. A
   crash between the two leaves only a temp file, swept on the next
   open; a concurrent remover makes the rename ENOENT, which is the
   outcome we wanted anyway. Call with the lock held. *)
let evict_node t n =
  index_forget t n;
  if Obs.Fault.fires fault_evict_race then (
    try Sys.remove n.n_path with Sys_error _ -> ());
  let seq = t.tmp_seq in
  t.tmp_seq <- seq + 1;
  let tmp =
    Filename.concat
      (Filename.dirname n.n_path)
      (Printf.sprintf "%sevict.%d.%d" tmp_marker (Unix.getpid ()) seq)
  in
  (try
     Unix.rename n.n_path tmp;
     Sys.remove tmp
   with Unix.Unix_error _ | Sys_error _ -> ());
  t.evictions <- t.evictions + 1;
  t.evicted_bytes <- t.evicted_bytes + n.n_size

(* Evict LRU-first until both budgets hold. A single oversized entry is
   evicted immediately after its own store — the byte budget is a hard
   ceiling on the resident set, not a suggestion. *)
let enforce_budget ?max_bytes ?max_entries t =
  let max_bytes = match max_bytes with Some _ as m -> m | None -> t.max_bytes in
  let max_entries =
    match max_entries with Some _ as m -> m | None -> t.max_entries
  in
  let over () =
    (match max_bytes with Some b -> t.total_bytes > b | None -> false)
    || match max_entries with
       | Some e -> Hashtbl.length t.index > e
       | None -> false
  in
  let n = ref 0 in
  while over () && t.lru_tail <> None do
    (match t.lru_tail with Some v -> evict_node t v | None -> ());
    incr n
  done;
  !n

let open_ ?max_bytes ?max_entries dir =
  mkdir_p dir;
  ignore (sweep_stale_tmp dir);
  let t =
    {
      dir;
      max_bytes;
      max_entries;
      lock = Mutex.create ();
      index = Hashtbl.create 1024;
      lru_head = None;
      lru_tail = None;
      total_bytes = 0;
      hits = 0;
      misses = 0;
      stores = 0;
      quarantined = 0;
      evictions = 0;
      evicted_bytes = 0;
      tmp_seq = 0;
    }
  in
  (* Rebuild the resident index from disk, oldest-first so the
     push-front insertions leave the newest entry at the MRU end.
     Recency survives restarts because hits touch the file times. *)
  let files = ref [] in
  iter_fan_files dir (fun path ->
      let base = Filename.basename path in
      if has_suffix ".json" base && not (has_prefix tmp_marker base) then
        match Unix.stat path with
        | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
          let key = Filename.chop_suffix base ".json" in
          files := (st_mtime, key, path, st_size) :: !files
        | _ -> ()
        | exception Unix.Unix_error _ -> ());
  List.iter
    (fun (_, key, path, size) -> index_add t key path size)
    (List.sort compare !files);
  ignore (enforce_budget t);
  t

let dir t = t.dir

(* Keys are hex digests, but never trust that: a hostile key must not
   escape the cache directory. *)
let safe_key key =
  key <> ""
  && String.for_all
       (function 'a' .. 'f' | 'A' .. 'F' | '0' .. '9' -> true | _ -> false)
       key

let entry_path t key =
  let fan = if String.length key >= 2 then String.sub key 0 2 else "xx" in
  let sub = Filename.concat t.dir fan in
  (sub, Filename.concat sub (key ^ ".json"))

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let quarantine t path =
  (try Unix.rename path (path ^ quarantine_suffix)
   with Unix.Unix_error _ -> ( try Sys.remove path with Sys_error _ -> ()));
  locked t (fun t ->
      t.quarantined <- t.quarantined + 1;
      match Filename.chop_suffix_opt ~suffix:".json" (Filename.basename path) with
      | Some key -> (
        match Hashtbl.find_opt t.index key with
        | Some n -> index_forget t n
        | None -> ())
      | None -> ());
  Obs.Span.trace "cache: quarantined %s" path

(* A hit refreshes the entry's recency on disk too, so LRU order
   survives daemon restarts. [utimes 0 0] = "now". *)
let touch t key path =
  (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
  locked t (fun t ->
      t.hits <- t.hits + 1;
      match Hashtbl.find_opt t.index key with
      | Some n ->
        lru_unlink t n;
        lru_push_front t n
      | None -> (
        (* Stored by another process (cachectl, a previous daemon) —
           adopt it. *)
        match Unix.stat path with
        | { Unix.st_size; _ } ->
          index_add t key path st_size;
          ignore (enforce_budget t : int)
        | exception Unix.Unix_error _ -> ()))

let checksum body = Digest.to_hex (Digest.string body)

let find t ~key =
  if not (safe_key key) then E.Cache_miss
  else begin
    let _, path = entry_path t key in
    if not (Sys.file_exists path) then begin
      locked t (fun t ->
          t.misses <- t.misses + 1;
          match Hashtbl.find_opt t.index key with
          | Some n -> index_forget t n
          | None -> ());
      E.Cache_miss
    end
    else
      (* Everything below treats the file as untrusted bytes: any
         surprise — unreadable, unparsable, checksum or key mismatch —
         quarantines the entry and degrades to a counted miss. One
         exception: a file that vanished between the existence check
         and the read lost a race with an eviction or a concurrent
         compaction — that is a plain miss, not a corrupt entry. *)
      match read_all path with
      | exception (Sys_error _ | End_of_file) ->
        if not (Sys.file_exists path) then begin
          locked t (fun t ->
              t.misses <- t.misses + 1;
              match Hashtbl.find_opt t.index key with
              | Some n -> index_forget t n
              | None -> ());
          E.Cache_miss
        end
        else begin
          quarantine t path;
          E.Cache_corrupt
        end
      | raw -> (
        match J.parse raw with
        | exception J.Parse_error _ ->
          quarantine t path;
          E.Cache_corrupt
        | payload -> (
          let stored_key = J.member "key" payload in
          let stored_sum = J.member "checksum" payload in
          let entry = J.member "entry" payload in
          match (stored_key, stored_sum, entry) with
          | Some (J.String k), Some (J.String sum), Some entry
            when k = key && sum = checksum (J.to_string entry) ->
            touch t key path;
            E.Cache_hit entry
          | _ ->
            quarantine t path;
            E.Cache_corrupt))
  end

let apply_write_faults payload =
  let payload =
    if Obs.Fault.fires fault_corrupt && String.length payload > 0 then begin
      let b = Bytes.of_string payload in
      let i = String.length payload / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
      Bytes.to_string b
    end
    else payload
  in
  if Obs.Fault.fires fault_torn then
    String.sub payload 0 (String.length payload / 2)
  else payload

let store t ~key entry =
  if safe_key key then begin
    let sub, path = entry_path t key in
    mkdir_p sub;
    let payload =
      J.to_string
        (J.Obj
           [
             ("key", J.String key);
             ("checksum", J.String (checksum (J.to_string entry)));
             ("entry", entry);
           ])
    in
    (* Faults strike the bytes, not the protocol: the write itself
       still goes through temp + rename, exactly like a torn sector or
       bit rot under a correct writer. *)
    let payload = apply_write_faults payload in
    let seq =
      locked t (fun t ->
          let s = t.tmp_seq in
          t.tmp_seq <- s + 1;
          s)
    in
    let tmp =
      Filename.concat sub
        (Printf.sprintf "%s%d.%d" tmp_marker (Unix.getpid ()) seq)
    in
    match
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc payload);
      Unix.rename tmp path
    with
    | () ->
      locked t (fun t ->
          t.stores <- t.stores + 1;
          index_add t key path (String.length payload);
          ignore (enforce_budget t))
    | exception (Sys_error _ | Unix.Unix_error _) ->
      (* A failed store is a lost entry, never a failed sweep. *)
      (try Sys.remove tmp with Sys_error _ -> ())
  end

let ops t =
  {
    E.cache_find = (fun ~key -> find t ~key);
    E.cache_store = (fun ~key body -> store t ~key body);
  }

(* ---- maintenance ---- *)

type compact_stats = {
  k_tmp : int;
  k_quarantined : int;
  k_evicted : int;
  k_evicted_bytes : int;
}

let compact ?max_bytes ?max_entries t =
  locked t @@ fun t ->
  let tmp = sweep_stale_tmp t.dir in
  let quarantined = ref 0 in
  iter_fan_files t.dir (fun path ->
      if has_suffix quarantine_suffix (Filename.basename path) then
        try
          Sys.remove path;
          incr quarantined
        with _ -> ());
  let before_bytes = t.evicted_bytes in
  let evicted = enforce_budget ?max_bytes ?max_entries t in
  {
    k_tmp = tmp;
    k_quarantined = !quarantined;
    k_evicted = evicted;
    k_evicted_bytes = t.evicted_bytes - before_bytes;
  }

(* ---- stats ---- *)

let bytes t = locked t (fun t -> t.total_bytes)
let entries t = locked t (fun t -> Hashtbl.length t.index)

let counters t =
  locked t @@ fun t ->
  {
    c_hits = t.hits;
    c_misses = t.misses;
    c_stores = t.stores;
    c_quarantined = t.quarantined;
    c_evictions = t.evictions;
    c_evicted_bytes = t.evicted_bytes;
  }

let counters_json t =
  let c = counters t in
  let bytes, entries, max_bytes, max_entries =
    locked t (fun t ->
        (t.total_bytes, Hashtbl.length t.index, t.max_bytes, t.max_entries))
  in
  J.Obj
    ([
       ("hits", J.Int c.c_hits);
       ("misses", J.Int c.c_misses);
       ("stores", J.Int c.c_stores);
       ("quarantined", J.Int c.c_quarantined);
       ("evictions", J.Int c.c_evictions);
       ("evicted_bytes", J.Int c.c_evicted_bytes);
       ("bytes", J.Int bytes);
       ("entries", J.Int entries);
     ]
    @ (match max_bytes with
      | Some b -> [ ("max_bytes", J.Int b) ]
      | None -> [])
    @
    match max_entries with Some e -> [ ("max_entries", J.Int e) ] | None -> [])

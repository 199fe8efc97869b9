(* gettimeofday can step backwards (NTP adjustments); clamp through an
   atomic high-water mark so [now] is non-decreasing process-wide. *)
let high_water = Atomic.make neg_infinity

let rec now () =
  let t = Unix.gettimeofday () in
  let prev = Atomic.get high_water in
  if t <= prev then prev
  else if Atomic.compare_and_set high_water prev t then t
  else now ()

let span f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

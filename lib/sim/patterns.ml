module Rng = Sutil.Rng

let word_bits = 32
let word_mask = 0xFFFFFFFF

type t = {
  num_pis : int;
  mutable n : int; (* patterns *)
  mutable words : int array array; (* pi -> packed bits; shared capacity *)
}

let words_for n = (n + word_bits - 1) / word_bits

let create ~num_pis =
  { num_pis; n = 0; words = Array.init num_pis (fun _ -> Array.make 1 0) }

let num_pis t = t.num_pis
let num_patterns t = t.n
let num_words t = words_for t.n

let ensure t n =
  let need = max 1 (words_for n) in
  if t.num_pis > 0 && Array.length t.words.(0) < need then begin
    let cap = max need (2 * Array.length t.words.(0)) in
    t.words <-
      Array.map
        (fun old ->
          let w = Array.make cap 0 in
          Array.blit old 0 w 0 (Array.length old);
          w)
        t.words
  end

let get t ~pi ~pattern =
  if pattern < 0 || pattern >= t.n then invalid_arg "Patterns.get";
  (t.words.(pi).(pattern lsr 5) lsr (pattern land 31)) land 1 = 1

let word t ~pi w =
  if w < 0 || w >= num_words t then invalid_arg "Patterns.word";
  t.words.(pi).(w)

let set_bit t pi pattern b =
  let w = pattern lsr 5 and off = pattern land 31 in
  if b then t.words.(pi).(w) <- t.words.(pi).(w) lor (1 lsl off)
  else t.words.(pi).(w) <- t.words.(pi).(w) land lnot (1 lsl off)

let add_pattern t x =
  if Array.length x <> t.num_pis then invalid_arg "Patterns.add_pattern";
  ensure t (t.n + 1);
  let i = t.n in
  t.n <- t.n + 1;
  Array.iteri (fun pi b -> set_bit t pi i b) x

let random ~seed ~num_pis ~num_patterns =
  let t = create ~num_pis in
  ensure t num_patterns;
  t.n <- num_patterns;
  let rng = Rng.create seed in
  let nw = words_for num_patterns in
  for pi = 0 to num_pis - 1 do
    for w = 0 to nw - 1 do
      t.words.(pi).(w) <- Rng.bits32 rng
    done;
    (* Mask the tail so unused bits stay zero. *)
    let tail = num_patterns land 31 in
    if tail <> 0 then
      t.words.(pi).(nw - 1) <- t.words.(pi).(nw - 1) land ((1 lsl tail) - 1)
  done;
  t

let exhaustive ~num_pis =
  if num_pis < 0 || num_pis > 20 then invalid_arg "Patterns.exhaustive";
  let n = 1 lsl num_pis in
  let t = create ~num_pis in
  ensure t n;
  t.n <- n;
  (* PI b toggles with period 2^b: this is exactly Truth_table.nth_var's
     bit layout, so windowed signatures are truth tables directly. *)
  for pi = 0 to num_pis - 1 do
    for i = 0 to n - 1 do
      if (i lsr pi) land 1 = 1 then set_bit t pi i true
    done
  done;
  t

let of_rows rows =
  match rows with
  | [] -> invalid_arg "Patterns.of_rows: no rows"
  | first :: _ ->
    let len = String.length first in
    if not (List.for_all (fun r -> String.length r = len) rows) then
      invalid_arg "Patterns.of_rows: unequal lengths";
    let t = create ~num_pis:(List.length rows) in
    ensure t len;
    t.n <- len;
    List.iteri
      (fun pi row ->
        String.iteri
          (fun i c ->
            match c with
            | '1' -> set_bit t pi i true
            | '0' -> ()
            | _ -> invalid_arg "Patterns.of_rows: not binary")
          row)
      rows;
    t

let pattern t i =
  if i < 0 || i >= t.n then invalid_arg "Patterns.pattern";
  Array.init t.num_pis (fun pi -> get t ~pi ~pattern:i)

let copy t = { t with words = Array.map Array.copy t.words }

let _ = word_mask

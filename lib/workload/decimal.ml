(* Digits are taken from the non-positive side, where every int
   (min_int included) has a magnitude. [m mod 10] is then in -9..0. *)

let width n =
  let rec digits m acc = if m > -10 then acc else digits (m / 10) (acc + 1) in
  digits (if n > 0 then -n else n) 1 + if n < 0 then 1 else 0

(* Top level, not a closure over [b]: a closure would cost an
   allocation per call. *)
let rec blit_digits b m i =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then blit_digits b (m / 10) (i - 1)

let blit n b pos =
  let stop = pos + width n in
  blit_digits b (if n > 0 then -n else n) (stop - 1);
  if n < 0 then Bytes.unsafe_set b pos '-';
  stop

type t = int

(* Log/antilog tables for the generator 0x03 of GF(2^8) mod 0x11B. *)
let exp = Array.make 512 0
let log_ = Array.make 256 0

let () =
  let x = ref 1 in
  for i = 0 to 254 do
    exp.(i) <- !x;
    log_.(!x) <- i;
    (* multiply by 0x03 = x + 1: shift-xor with reduction *)
    let x2 = !x lsl 1 in
    let x2 = if x2 land 0x100 <> 0 then x2 lxor 0x11B else x2 in
    x := x2 lxor !x
  done;
  (* duplicate so exp.(a + b) works without mod for a, b < 255 *)
  for i = 255 to 511 do
    exp.(i) <- exp.(i - 255)
  done

let add a b = a lxor b

let mul a b = if a = 0 || b = 0 then 0 else exp.(log_.(a) + log_.(b))

let inv a =
  assert (a <> 0);
  exp.(255 - log_.(a))

let div a b = mul a (inv b)

let pow x e =
  assert (e >= 0);
  if x = 0 then (if e = 0 then 1 else 0)
  else exp.(log_.(x) * e mod 255)

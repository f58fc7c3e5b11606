(* FIPS 180-4 SHA-256 over the C compressor in sha256_stubs.c.

   The one-shot digests (string, Merkle pair, HMAC) are single C calls.
   The streaming context keeps its block buffer on the OCaml side and
   hands whole blocks to C; its chaining state is 32 bytes of native
   uint32 words that only C reads or writes. Digests are verified
   against the FIPS 180-4 / RFC 6234 / RFC 4231 vectors in
   test_crypto.ml, and the two C compressors against each other. *)

external select_sha_ni : unit -> bool = "leopard_sha256_select"
external has_sha_ni : unit -> bool = "leopard_sha256_has_sha_ni"
external init_state : bytes -> unit = "leopard_sha256_init_state" [@@noalloc]

external compress_blocks : bytes -> bytes -> int -> int -> unit = "leopard_sha256_compress"
  [@@noalloc]

external digest_string : string -> string = "leopard_sha256_digest"
external pair_into : bytes -> int -> bytes -> int -> unit = "leopard_sha256_pair" [@@noalloc]
external hmac_c : string -> string -> string = "leopard_sha256_hmac"

let backend = if select_sha_ni () then "sha-ni" else "portable"

type ctx = {
  h : bytes; (* 8 chaining words, native-endian uint32, owned by C *)
  block : bytes; (* 64-byte input block buffer *)
  mutable fill : int; (* bytes buffered in [block] *)
  mutable total : int; (* total message bytes fed *)
  mutable finalized : bool;
}

let init () =
  let h = Bytes.create 32 in
  init_state h;
  { h; block = Bytes.create 64; fill = 0; total = 0; finalized = false }

let feed_bytes ctx ?(off = 0) ?len src =
  if ctx.finalized then invalid_arg "Sha256.feed_bytes: context already finalized";
  let len = match len with Some l -> l | None -> Bytes.length src - off in
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Sha256.feed_bytes: out of bounds";
  ctx.total <- ctx.total + len;
  let pos = ref off and remaining = ref len in
  (* Top up a partially filled block first. *)
  if ctx.fill > 0 then begin
    let take = min !remaining (64 - ctx.fill) in
    Bytes.blit src !pos ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.fill = 64 then begin
      compress_blocks ctx.h ctx.block 0 1;
      ctx.fill <- 0
    end
  end;
  (* Whole blocks straight from the caller's buffer, in one call. *)
  let whole = !remaining lsr 6 in
  if whole > 0 then begin
    compress_blocks ctx.h src !pos whole;
    pos := !pos + (whole lsl 6);
    remaining := !remaining - (whole lsl 6)
  end;
  if !remaining > 0 then begin
    Bytes.blit src !pos ctx.block ctx.fill !remaining;
    ctx.fill <- ctx.fill + !remaining
  end

let feed_string ctx s = feed_bytes ctx (Bytes.unsafe_of_string s)

let finalize ctx =
  if ctx.finalized then invalid_arg "Sha256.finalize: context already finalized";
  ctx.finalized <- true;
  (* Padding: 0x80, zeros, 8-byte big-endian bit length — written straight
     into the block buffer, no scratch allocation. *)
  let block = ctx.block in
  let fill = ctx.fill in
  Bytes.unsafe_set block fill '\x80';
  if fill >= 56 then begin
    Bytes.fill block (fill + 1) (63 - fill) '\000';
    compress_blocks ctx.h block 0 1;
    Bytes.fill block 0 56 '\000'
  end
  else Bytes.fill block (fill + 1) (55 - fill) '\000';
  Bytes.set_int64_be block 56 (Int64.of_int (ctx.total * 8));
  compress_blocks ctx.h block 0 1;
  ctx.fill <- 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Bytes.get_int32_ne ctx.h (4 * i))
  done;
  Bytes.unsafe_to_string out

let digest_strings parts = digest_string (String.concat "" parts)

let digest_pair_into ~src ~src_off ~dst ~dst_off =
  if src_off < 0 || src_off + 64 > Bytes.length src || dst_off < 0
     || dst_off + 32 > Bytes.length dst
  then invalid_arg "Sha256.digest_pair_into";
  pair_into src src_off dst dst_off

let hmac ~key msg = hmac_c key msg

let hex_chars = "0123456789abcdef"

let to_hex raw =
  let n = String.length raw in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get raw i) in
    Bytes.unsafe_set out (2 * i) (String.unsafe_get hex_chars (c lsr 4));
    Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get hex_chars (c land 0xf))
  done;
  Bytes.unsafe_to_string out

module For_testing = struct
  type backend = Portable | Sha_ni

  let code = function Portable -> 0 | Sha_ni -> 1

  external digest_with : int -> string -> string = "leopard_sha256_digest_with"

  external pair_with : int -> bytes -> int -> bytes -> int -> unit = "leopard_sha256_pair_with"

  let sha_ni_available = has_sha_ni ()
  let digest_string b s = digest_with (code b) s

  let digest_pair_into b ~src ~src_off ~dst ~dst_off =
    if src_off < 0 || src_off + 64 > Bytes.length src || dst_off < 0
       || dst_off + 32 > Bytes.length dst
    then invalid_arg "Sha256.For_testing.digest_pair_into";
    pair_with (code b) src src_off dst dst_off
end

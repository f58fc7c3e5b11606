(* FIPS 180-4 SHA-256 over the C compressor in sha256_stubs.c.

   Every digest (string, Merkle pair, HMAC) is a single C call. Digests
   are verified against the FIPS 180-4 / RFC 6234 / RFC 4231 vectors in
   test_crypto.ml, and the two C compressors against each other. *)

external select_sha_ni : unit -> bool = "leopard_sha256_select"
external has_sha_ni : unit -> bool = "leopard_sha256_has_sha_ni"
external digest_string : string -> string = "leopard_sha256_digest"
external pair_into : bytes -> int -> bytes -> int -> unit = "leopard_sha256_pair" [@@noalloc]
external hmac_c : string -> string -> string = "leopard_sha256_hmac"

external digest_into : bytes -> int -> int -> bytes -> int -> unit = "leopard_sha256_digest_into"
[@@noalloc]

external hmac_key : string -> string = "leopard_sha256_hmac_key"
external hmac_check : string -> string -> string -> bool = "leopard_sha256_hmac_check" [@@noalloc]

let backend = if select_sha_ni () then "sha-ni" else "portable"

let digest_strings parts = digest_string (String.concat "" parts)

let digest_pair_into ~src ~src_off ~dst ~dst_off =
  if src_off < 0 || src_off + 64 > Bytes.length src || dst_off < 0
     || dst_off + 32 > Bytes.length dst
  then invalid_arg "Sha256.digest_pair_into";
  pair_into src src_off dst dst_off

let digest_bytes_into ~src ~src_off ~len ~dst ~dst_off =
  if src_off < 0 || len < 0 || src_off + len > Bytes.length src || dst_off < 0
     || dst_off + 32 > Bytes.length dst
  then invalid_arg "Sha256.digest_bytes_into";
  digest_into src src_off len dst dst_off

let hmac ~key msg = hmac_c key msg

type hmac_key = string

let hmac_verify key msg ~tag = hmac_check key msg tag

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

(** SHA-256 (FIPS 180-4), compressed in C.

    Used for request digests, datablock/BFTblock hashes and hash links.
    The implementation is the real compression function (verified against
    the RFC 6234 test vectors in the test suite), so hash-link integrity
    and collision-resistance assumptions in the protocol are exercised for
    real rather than stubbed.

    The compressor is an in-repo C stub ([sha256_stubs.c]). At startup it
    picks the x86 SHA extensions when cpuid reports them, and portable C
    otherwise; both give the same digests, and {!backend} names the one
    in use. The one-shot functions ({!digest_string}, {!digest_pair_into},
    {!digest_bytes_into}, {!hmac}, {!hmac_verify}) are one C call each. *)

val backend : string
(** ["sha-ni"] or ["portable"]: the compressor chosen at startup. *)

val digest_string : string -> string
(** [digest_string s] is the 32-byte SHA-256 digest of [s]. *)

val digest_strings : string list -> string
(** Digest of the concatenation of the given strings, without building the
    concatenation. *)

val digest_pair_into : src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> unit
(** Digest of exactly the 64 bytes at [src_off] in [src] (two
    concatenated 32-byte digests), written to [dst.(dst_off..+31)]
    without allocating in steady state — the Merkle inner-node
    primitive. Equal to [digest_string (Bytes.sub_string src src_off
    64)]. Safe to call from any domain. *)

val digest_bytes_into : src:bytes -> src_off:int -> len:int -> dst:bytes -> dst_off:int -> unit
(** Digest of the [len] bytes at [src_off] in [src], written to
    [dst.(dst_off..+31)] without allocating. Equal to [digest_string
    (Bytes.sub_string src src_off len)]. Safe to call from any domain. *)

val hmac : key:string -> string -> string
(** HMAC-SHA256 (RFC 2104); the primitive under the simulated signature
    schemes. *)

type hmac_key
(** An HMAC key schedule: the two SHA-256 states after the key's ipad
    and opad blocks. *)

val hmac_key : string -> hmac_key
(** The schedule of a key, computed once so that each check under it
    skips the two key-block compressions. *)

val hmac_verify : hmac_key -> string -> tag:string -> bool
(** [hmac_verify (hmac_key k) msg ~tag] is [String.equal tag (hmac ~key:k
    msg)], without allocating. *)

val to_hex : string -> string
(** Lowercase hex rendering of a raw digest. *)

(** Test-only access to each compressor, whatever {!backend} is. *)
module For_testing : sig
  type backend = Portable | Sha_ni

  val sha_ni_available : bool
  (** Whether this CPU reports the SHA extensions; [Sha_ni] calls raise
      [Invalid_argument] when it does not. *)

  val digest_string : backend -> string -> string

  val digest_pair_into :
    backend -> src:bytes -> src_off:int -> dst:bytes -> dst_off:int -> unit
end

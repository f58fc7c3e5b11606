(** Digital signatures (simulated ECDSA).

    The scheme is HMAC-SHA256 under the signer's private key; verification
    resolves the private key through a registry private to this module.
    Inside the closed simulation this has the EUF-CMA *shape* required by
    the protocol: the only way any component (including Byzantine replica
    code) can produce a signature that verifies under [pk] is to hold the
    corresponding abstract [private_key] and call {!sign}. Wire size and
    CPU cost mirror ECDSA/secp256k1 as measured in the paper (§6.2.1). *)

type public_key
type private_key

type t
(** A signature value. *)

val size_bytes : int
(** Wire size of a signature (64, as ECDSA). *)

val keygen : Sim.Rng.t -> public_key * private_key
(** A fresh key pair, registered for verification. *)

val sign : private_key -> string -> t
val verify : public_key -> t -> string -> bool

(** {2 Raw access (persistence/wire codecs)}

    A signature is a 32-byte tag on the wire (padded to {!size_bytes}
    in transit-size accounting). Raw access exists so protocol
    transcripts can be serialized and replayed; it cannot be used to
    forge (verification still resolves the private key internally). *)

val to_raw : t -> string
(** The 32 raw tag bytes. *)

val of_raw : string -> t
(** Wraps raw tag bytes (length 32). *)

val equal : t -> t -> bool

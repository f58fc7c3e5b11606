(** Merkle trees over digests.

    Datablock digests in the prototype are Merkle roots over request
    digests, which lets a replica prove inclusion of one request to a
    client without shipping the whole datablock (used by the fast-payment
    example). *)

type proof
(** An inclusion proof: the co-path from a leaf to the root. *)

val root : Hash.t list -> Hash.t
(** Merkle root of the leaves; leaves are paired left-to-right and odd
    tails are promoted. The root of [[]] is the hash of the empty string,
    and a singleton's root is its element. Allocates only the resulting
    digest: intermediate levels are computed in domain-local scratch, so
    concurrent calls from different domains are safe. *)

val root_with : leaf:('a -> bytes -> int -> unit) -> 'a list -> Hash.t
(** [root_with ~leaf xs] is the root over the leaf digests of [xs], where
    [leaf x dst off] writes the 32-byte digest of [x] at [dst.(off..+31)].
    Equal to [root] of those digests, without a list or a string per
    leaf. *)

val prove : Hash.t list -> int -> proof option
(** [prove leaves i] is the inclusion proof of leaf [i], or [None] when
    [i] is out of range. *)

val verify_proof : root:Hash.t -> leaf:Hash.t -> proof -> bool
(** Checks an inclusion proof against a root. *)

val proof_size_bytes : proof -> int
(** Wire size of a proof (32 bytes per level plus direction bits). *)

(** Replica identities.

    Replicas are indexed [0 .. n-1]. *)

type t = int

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

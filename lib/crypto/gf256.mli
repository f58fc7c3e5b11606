(** Arithmetic in GF(2^8) (the AES field, polynomial x⁸+x⁴+x³+x+1).

    The base field of the Reed–Solomon codes used by the erasure-coded
    delivery alternative of §2. Multiplication and inversion go through
    precomputed log/antilog tables. *)

type t = int
(** A field element in [0, 255]. Operations assume in-range inputs. *)

val add : t -> t -> t
(** Addition = XOR (characteristic 2); also subtraction. *)

val mul : t -> t -> t

val inv : t -> t
(** Multiplicative inverse. Requires a non-zero argument. *)

val div : t -> t -> t
(** [div a b] = [mul a (inv b)]. Requires [b <> 0]. *)

val pow : t -> int -> t
(** [pow x e] for [e >= 0]. *)

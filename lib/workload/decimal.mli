(** Printf-free decimal rendering for hash inputs.

    [Request.encode] and [Datablock.header_encoding] build the bytes
    that get hashed and signed on every request and datablock; going
    through [Printf] costs more than the SHA-256 over the result. These
    write the same digits as [%d], straight into a byte buffer. *)

val width : int -> int
(** Characters [%d] prints for the integer, sign included. *)

val blit : int -> bytes -> int -> int
(** [blit n b pos] writes [n] as [%d] would at [pos] in [b] and returns
    the position just past it. [b] must have [width n] bytes free at
    [pos]. *)

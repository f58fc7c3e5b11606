(** Size-classed [Bytes.t] pool for transport buffers.

    Each node's read scratch and write-coalescing buffer are acquired
    here when its {!Conn} is created and released when it closes. A
    {!Frame.reader} acquires a buffer only when a read ends inside a
    frame, sized to that frame, and releases it as soon as the frame
    completes; an idle connection holds none. Recycling both turns
    partial frames and node restarts into free-list hits instead of
    major-heap allocations. Classes
    are powers of two from 4 KiB to 4 MiB; requests above the largest
    class degrade to plain allocations that {!release} quietly drops.

    With [debug], released buffers are filled with {!poison_byte} (a
    use-after-release reads poison, not stale frames) and releasing the
    same buffer twice raises [Invalid_argument]. *)

type t

type stats = {
  mutable acquires : int;
  mutable hits : int;      (** acquires served by recycling *)
  mutable releases : int;
  mutable dropped : int;   (** off-class releases, not pooled *)
  mutable held_bytes : int;
      (** bytes handed out by {!acquire} minus bytes given to {!release} *)
}

val create : ?debug:bool -> unit -> t
(** [debug] defaults to [false]; see above. *)

val acquire : t -> int -> Bytes.t
(** A buffer of length >= [n] (its class size — callers track fill
    themselves). Contents are arbitrary, poisoned in debug pools. *)

val release : t -> Bytes.t -> unit
(** Returns a buffer to its class free list. Safe on any [Bytes.t]:
    buffers of off-class lengths are dropped, not pooled. In debug
    pools, raises [Invalid_argument] on a double release. *)

val min_class : int
(** 4096. *)

val max_class : int
(** 4 MiB. *)

val poison_byte : char
(** [0xDE]. *)

val stats : t -> stats

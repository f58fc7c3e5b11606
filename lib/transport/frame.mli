(** Length-prefixed message framing over the binary codec.

    TCP is a byte stream; this layer turns it into a sequence of
    self-delimiting frames. Every frame starts with an 11-byte header:

    {v
      offset  size  field
      0       4     magic "LPRD"
      4       2     protocol version, u16 LE (currently 1)
      6       1     kind: 0 = hello, 1 = protocol message
      7       4     payload length, u32 LE
      11      len   payload
    v}

    A [hello] payload is the sender's node id as a u32 LE — the first
    frame on every connection, identifying the peer. A [msg] payload is
    {!Core.Codec.encode_msg} bytes: the frozen wire format pinned by the
    golden-byte tests, so the version field only needs to move when that
    format does.

    Decoding is incremental ({!feed} accepts arbitrary byte slices) and
    total: malformed input yields an {!error}, never an exception and
    never a silent skip. A partial frame is not an error while the
    connection lives — {!feed} just waits for more bytes — but a stream
    that ends mid-frame is one ({!check_eof}). *)

val magic : string
(** ["LPRD"]. *)

val version : int
(** Protocol version this build speaks (1). Bump when the codec or the
    frame layout changes incompatibly. *)

val header_bytes : int
(** 11. *)

val default_max_frame : int
(** Largest accepted payload (16 MiB): a length field beyond this is a
    protocol violation (or garbage), not a request to allocate. *)

type frame =
  | Hello of Net.Node_id.t
  | Msg of Core.Msg.t

type error =
  | Bad_magic
  | Bad_version of int   (** the offered version *)
  | Oversized of int     (** the declared payload length *)
  | Decode_failed        (** well-framed payload the codec rejects *)
  | Short_read           (** stream ended inside a frame *)

val pp_error : Format.formatter -> error -> unit

(** {2 Encoding} *)

val encode_hello : Net.Node_id.t -> string
(** A complete hello frame (header + payload). *)

val encode_shared : Core.Msg.t -> string
(** A complete message frame — header and payload in one exact-size
    immutable buffer. Because the result is an immutable string, a
    multicast can enqueue the {e same} value by reference into every
    peer's write queue; per-peer write progress lives in the queues, so
    partial writes never force a copy. Raises
    {!Core.Codec.Encode_error} on unrepresentable values, as the codec
    does. Bumps {!encode_count}. *)

val encode_count : unit -> int
(** Message-frame encodes since process start. Diff around a multicast
    to assert the encode-once property: one frame to [k] peers bumps
    this by exactly 1. *)

(** {2 Incremental decoding}

    A reader holds memory only while a frame is incomplete. {!feed}
    parses and decodes every complete frame in place from the caller's
    bytes (the payload through {!Core.Codec.decode_msg_sub}, no copy).
    Only an incomplete tail is copied, into a buffer sized to its frame
    (at most [header_bytes + max_frame]); the buffer is returned to the
    pool the moment that frame completes. So an idle reader owns no
    buffer, and a connection's cost between frames is the reader record
    alone: the bytes a read lands in belong to the caller (one scratch
    per node in {!Conn}). *)

type reader

val reader : ?max_frame:int -> ?pool:Pool.t -> unit -> reader
(** A fresh stream decoder (one per connection direction). It holds no
    buffer until a read ends inside a frame. With [pool], the buffer for
    such a partial frame is acquired from it and released when the frame
    completes (or on {!release}). *)

val release : reader -> unit
(** Returns a partial frame's buffer (if any) to its pool and poisons the
    reader. Call exactly once when the connection dies; the reader must
    not be fed afterwards. Releasing from inside a {!feed} callback is
    allowed: that feed delivers no further frame. *)

val feed :
  reader -> bytes -> off:int -> len:int -> (frame -> unit) -> (unit, error) result
(** [feed r buf ~off ~len k] appends the slice to the stream and calls
    [k] on every frame completed by it, in order. Complete frames are
    decoded straight out of [buf], so [k] must not overwrite the rest of
    the slice (in {!Conn}: no callback reads a socket inline). On error
    the reader is poisoned: subsequent feeds return the same error (the
    connection must be dropped — after a framing error resynchronization
    is impossible). *)

val check_eof : reader -> (unit, error) result
(** Call when the peer closes: [Error Short_read] if the stream ended
    inside a frame, [Ok ()] on a frame boundary. *)

val buffered : reader -> int
(** Bytes held waiting for the rest of a frame (diagnostics). *)

let magic = "LPRD"
let version = 1
let header_bytes = 11
let default_max_frame = 16 * 1024 * 1024

let kind_hello = 0
let kind_msg = 1

type frame =
  | Hello of Net.Node_id.t
  | Msg of Core.Msg.t

type error =
  | Bad_magic
  | Bad_version of int
  | Oversized of int
  | Decode_failed
  | Short_read

let pp_error fmt = function
  | Bad_magic -> Format.fprintf fmt "bad magic"
  | Bad_version v -> Format.fprintf fmt "bad protocol version %d (speak %d)" v version
  | Oversized n -> Format.fprintf fmt "oversized frame (%d bytes)" n
  | Decode_failed -> Format.fprintf fmt "payload failed to decode"
  | Short_read -> Format.fprintf fmt "stream ended mid-frame"

(* -- encoding ----------------------------------------------------------- *)

(* Counts every message-frame encode since process start. The encode-once
   multicast property is asserted by diffing this around a multicast: one
   frame to k peers must bump it by exactly 1. *)
let encodes = ref 0
let encode_count () = !encodes

let set_header b ~kind ~len =
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint16_le b 4 version;
  Bytes.set_uint8 b 6 kind;
  Bytes.set_int32_le b 7 (Int32.of_int len)

let encode_hello id =
  let b = Bytes.create (header_bytes + 4) in
  set_header b ~kind:kind_hello ~len:4;
  Bytes.set_int32_le b header_bytes (Int32.of_int id);
  Bytes.unsafe_to_string b

(* Header and payload land in one exact-size buffer. The result is an
   immutable string, so sharing it by reference into every peer's write
   queue is safe: per-peer progress lives in the queues (head offsets),
   never in the frame. *)
let encode_shared msg =
  let payload = Core.Codec.encode_msg msg in
  let len = String.length payload in
  let b = Bytes.create (header_bytes + len) in
  set_header b ~kind:kind_msg ~len;
  Bytes.blit_string payload 0 b header_bytes len;
  incr encodes;
  Bytes.unsafe_to_string b

(* -- incremental decoding ----------------------------------------------- *)

(* A reader owns a buffer only while a frame is incomplete. [feed]
   parses and decodes every complete frame in place from the caller's
   bytes; an incomplete tail is copied into a buffer sized to its frame
   (to the header until the header is in), which goes back to the pool
   the moment that frame completes. An idle reader holds nothing, so a
   connection costs no buffer memory between frames. *)
type reader = {
  max_frame : int;
  pool : Pool.t option;
  mutable tail : Bytes.t; (* the incomplete frame; [Bytes.empty] when idle *)
  mutable fill : int;     (* bytes of it received so far *)
  mutable poisoned : error option;
}

exception Malformed of error

let reader ?(max_frame = default_max_frame) ?pool () =
  { max_frame; pool; tail = Bytes.empty; fill = 0; poisoned = None }

let alloc r n =
  match r.pool with
  | Some p -> Pool.acquire p n
  | None -> Bytes.create n

let free_buf r b =
  match r.pool with
  | Some p -> Pool.release p b
  | None -> ()

let drop_tail r =
  if r.tail != Bytes.empty then free_buf r r.tail;
  r.tail <- Bytes.empty;
  r.fill <- 0

let release r =
  drop_tail r;
  if r.poisoned = None then r.poisoned <- Some Short_read

let buffered r = r.fill

(* The size, header included, of the frame whose header starts at
   [pos]; raises [Malformed] on a bad header. *)
let frame_bytes r s pos =
  if not (s.[pos] = 'L' && s.[pos + 1] = 'P' && s.[pos + 2] = 'R' && s.[pos + 3] = 'D')
  then raise (Malformed Bad_magic);
  let v = String.get_uint16_le s (pos + 4) in
  if v <> version then raise (Malformed (Bad_version v));
  let len = Int32.to_int (String.get_int32_le s (pos + 7)) land 0xFFFFFFFF in
  if len > r.max_frame then raise (Malformed (Oversized len));
  header_bytes + len

(* The complete frame of [total] bytes at [pos]. The payload is decoded
   where it sits; the codec copies out everything the message keeps, so
   [s] is free for reuse once this returns. *)
let decode s pos total =
  let pbase = pos + header_bytes and len = total - header_bytes in
  let kind = String.get_uint8 s (pos + 6) in
  if kind = kind_hello && len = 4 then
    Hello (Int32.to_int (String.get_int32_le s pbase) land 0xFFFFFFFF)
  else if kind = kind_msg then
    match Core.Codec.decode_msg_sub s ~off:pbase ~len with
    | Some msg -> Msg msg
    | None -> raise (Malformed Decode_failed)
  else raise (Malformed Decode_failed)

(* Copy bytes from [buf] into the held tail until its frame completes,
   deliver it and return the tail to the pool; the result is the offset
   of the first byte not taken. *)
let finish_tail r buf off stop k =
  let pos = ref off in
  let take upto =
    let m = min (upto - r.fill) (stop - !pos) in
    Bytes.blit buf !pos r.tail r.fill m;
    pos := !pos + m;
    r.fill <- r.fill + m
  in
  if r.fill < header_bytes then take header_bytes;
  if r.fill >= header_bytes then begin
    let total = frame_bytes r (Bytes.unsafe_to_string r.tail) 0 in
    if Bytes.length r.tail < total then begin
      let bigger = alloc r total in
      Bytes.blit r.tail 0 bigger 0 r.fill;
      free_buf r r.tail;
      r.tail <- bigger
    end;
    take total;
    if r.fill = total then begin
      let f = decode (Bytes.unsafe_to_string r.tail) 0 total in
      drop_tail r;
      k f
    end
  end;
  !pos

(* Deliver every complete frame in [buf] from [pos], then keep the
   incomplete rest. Stops if a callback released the reader. *)
let rec parse r buf pos stop k =
  let avail = stop - pos in
  if avail > 0 && r.poisoned = None then begin
    let total =
      if avail < header_bytes then header_bytes
      else frame_bytes r (Bytes.unsafe_to_string buf) pos
    in
    if avail < total then begin
      r.tail <- alloc r total;
      Bytes.blit buf pos r.tail 0 avail;
      r.fill <- avail
    end
    else begin
      k (decode (Bytes.unsafe_to_string buf) pos total);
      parse r buf (pos + total) stop k
    end
  end

let feed r buf ~off ~len k =
  match r.poisoned with
  | Some e -> Error e
  | None -> (
    let stop = off + len in
    match parse r buf (if r.fill > 0 then finish_tail r buf off stop k else off) stop k with
    | () -> Ok ()
    | exception Malformed e ->
      r.poisoned <- Some e;
      Error e)

let check_eof r =
  match r.poisoned with
  | Some e -> Error e
  | None -> if r.fill = 0 then Ok () else Error Short_read

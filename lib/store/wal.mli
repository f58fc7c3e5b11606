(** Segmented append-only write-ahead log with checkpoint snapshots.

    Payloads are opaque strings (the [Core.Codec] encodings of
    [Core.Store] records and snapshots); each is framed with a fixed
    header — magic, version, kind, length, CRC-32 of the payload — the
    same discipline as the transport's [Frame]. The recovery scanner
    {!load} tolerates a torn or truncated tail: it returns the clean
    frame prefix and reports where (and why) it stopped, and never raises
    on any file content. *)

type fsync_policy =
  | Always       (** fsync after every appended record (group of one) *)
  | Interval of int
      (** fsync on the first flush at least this many nanoseconds after
          the previous one *)
  | Never        (** leave durability to the OS page cache *)

type corruption = { segment : string; off : int; reason : string }
(** Where a recovery scan stopped: byte offset of the first bad frame in
    [segment], and which header check failed. *)

type t

val create :
  ?obs:Obs.Registry.t ->
  ?segment_bytes:int ->
  ?fsync:fsync_policy ->
  ?now_ns:(unit -> int) ->
  dir:string ->
  unit ->
  t
(** Opens a log in [dir] (created if missing), always starting a fresh
    segment numbered after everything already there — a prior process may
    have died mid-write, and appending past a torn tail would hide it
    from {!load}. [segment_bytes] (default 4 MiB) bounds a segment before
    rotation; [now_ns] (default: wall clock) drives [Interval] fsyncs.

    With [?obs], appends and fsyncs (of segments and snapshots) record
    [leopard_store_*_latency_ns] histograms (timed via [now_ns]),
    rotations/snapshots bump [leopard_store_*_total] counters and
    [leopard_store_snapshot_bytes] gauges the last snapshot's size. Instruments are unlabeled and
    shared by every WAL on the same registry: store metrics aggregate
    across replicas. *)

val append : t -> string -> unit
(** Buffers one record frame (group commit: nothing reaches the file
    until {!flush}, except under [Always], which flushes and fsyncs
    immediately). Rotates to a new segment when the current one is
    full. *)

val flush : t -> unit
(** Writes the buffered frames in one [write], then fsyncs if the policy
    calls for it now. *)

val sync : t -> unit
(** {!flush} plus an unconditional fsync (checkpoint barrier). *)

val save_snapshot : t -> string -> unit
(** Seals the current segment, writes the snapshot to a temp file, fsyncs
    it (unless the policy is [Never]) and atomically renames it into
    place, then deletes every segment and older snapshot below it. The
    snapshot's number is the first segment {!load} will replay on top of
    it. With [?obs], the [leopard_store_snapshot_bytes] gauge holds the
    last snapshot's payload size. *)

val crash : t -> unit
(** Models the process dying: drops the un-flushed buffer and closes the
    descriptor without syncing. The file is left with a clean frame
    prefix — exactly the frames that had been flushed. *)

val close : t -> unit
(** Graceful shutdown: flush, fsync (unless the policy is [Never]),
    close. Idempotent, as is {!crash}. *)

val load : dir:string -> string option * string list * corruption option
(** Recovery scan of [dir]: the newest snapshot payload that validates
    (if any), the clean prefix of record payloads from every segment at
    or above it in order, and the corruption that stopped the scan (if
    any). A missing directory is simply empty. Never raises. *)

val dir : t -> string

val appended : t -> int
(** Records appended over this handle's lifetime (bench bookkeeping). *)

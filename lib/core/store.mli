(** The durable-state seam between {!Replica} and stable storage.

    Leopard's safety argument (like PBFT's and HotStuff's) assumes a
    correct replica remembers its votes across a restart: forgetting a
    prepare vote and voting differently for the same [(view, sn)] lets
    two conflicting BFTblocks notarize. A {!sink} is the replica's
    write-ahead interface to whatever provides that stability —
    {!Replica} logs every vote, certificate and datablock counter
    {e before} the corresponding send, saves a {!snapshot} whenever a
    checkpoint advances the low watermark, and [Replica.recover] rebuilds
    a replica as snapshot + log replay.

    Three implementations: {!null} (no persistence — the sim default,
    keeping reports byte-identical to the pre-seam code), {!mem}
    (durable in-memory storage for sim-plane restart scenarios) and the
    segmented on-disk WAL in [Store.Store_file] (the TCP plane). The sink
    travels in [Platform.t.store], mirroring the [Verify] seam. *)

(** One log entry. [Logged_msg] covers everything whose emission is a
    binding commitment (prepare/commit votes, proposals, notarization
    and checkpoint certificates); [Confirmed_block] pins a locally
    confirmed BFTblock (its proof is final, never re-voted);
    [Entered_view] records view entry; [Db_counter] records a datablock
    counter the moment it is consumed, so a restarted replica never
    reuses one (counter reuse is equivocation evidence against an honest
    node). *)
type record =
  | Logged_msg of Msg.t
  | Confirmed_block of Bftblock.t
  | Entered_view of int
  | Db_counter of int

(** Per-serial agreement-instance state worth keeping at a checkpoint:
    exactly the fields that make re-voting deterministic. *)
type inst_snap = {
  s_sn : int;
  s_iview : int;
  s_block : Bftblock.t option;
  s_voted_prepare : bool;
  s_voted_hash : Crypto.Hash.t option;
  s_voted_commit : bool;
  s_notarized_view : int;
  s_notarization : Crypto.Threshold.aggregate option;
}

(** Checkpoint-time replica state. Saving one makes every log record
    written before it redundant, which is what lets the WAL truncate
    segments below the snapshot. *)
type snapshot = {
  snap_view : int;
  snap_lw : int;
  snap_next_sn : int;
  snap_db_counter : int;
  snap_state_hash : Crypto.Hash.t;
  snap_executed_up_to : int;
  snap_checkpoint : Msg.checkpoint_cert option;
  snap_blocks : Bftblock.t list;  (** ledger blocks retained above [lw] *)
  snap_executed_floors : Datablock_pool.floor list;
      (** per-creator counters of the datablocks executed and pruned at
          or below [snap_lw]; the links executed above it are re-derived
          from [snap_blocks] *)
  snap_instances : inst_snap list;
  snap_datablocks : (Datablock.t * bool) list;  (** with linked flag *)
}

type sink = {
  enabled : bool;
      (** [false] skips even record construction on the hot path
          ({!null}); implementations must set [true] *)
  log : record -> unit;
      (** append one record. Called synchronously before the send it
          covers; implementations may buffer until {!sync} (group
          commit). *)
  save : snapshot -> unit;
      (** persist a checkpoint snapshot and truncate the log below it *)
  load : unit -> snapshot option * record list;
      (** recover: latest durable snapshot (if any) plus every record
          logged after it, in append order. Total — implementations map
          torn tails to a clean prefix, never an exception. *)
  sync : unit -> unit;
      (** flush buffered appends per the implementation's fsync policy *)
}

val null : sink
(** No persistence; [enabled = false]. *)

val mem : unit -> sink
(** Durable in-memory storage: survives [Replica.halt]/[recover] (which
    model a process restart, not host memory loss), used by sim-plane
    restart scenarios. [save] truncates the record log like the file
    store truncates segments. *)

val with_torn_tail : drop:int -> sink -> sink
(** Fault-injecting wrapper: [load] drops the last [drop] records —
    the un-synced tail a crash can lose under a lazy fsync policy. Both
    planes use it for torn-tail recovery scenarios. *)

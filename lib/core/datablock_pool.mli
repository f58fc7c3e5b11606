(** The datablock pool (Fig. 4): verified datablocks awaiting linkage.

    Indexed by hash for BFTblock link resolution and by (creator,
    counter) for the duplicate/equivocation check of Algorithm 1 line 18.

    The pool is the one record of where each stored datablock is in its
    life. Every entry is in one state:

    {v
    state        offered by take_pending   entered by
    Pending      yes                       add (Accepted), relink_pending
    Linked       no                        take_pending, mark_linked, relink_pending
    Executed sn  no                        mark_executed (from any state)
    Rival        no                        add (Equivocation); the accepted
                                           variant, once its rival is
                                           marked linked or executed
    v}

    [relink_pending] moves Linked entries back to Pending unless kept,
    and kept Pending ones to Linked; Executed and Rival entries never
    move. A Rival (a second variant of a (creator, counter) slot)
    resolves by hash like any entry, so a BFTblock that links it can be
    backed and executed, but this replica never offers it. Checkpoint
    garbage collection ({!prune}) forgets Executed entries at or below
    the watermark but keeps their slots as a per-creator
    executed-counter {!floor}, so a late copy or a replay of an executed
    datablock is refused on arrival instead of re-entering the pending
    set; it also forgets the Rivals of the slots a floor covers. *)

type t

type verdict =
  | Accepted
  | Duplicate              (** this datablock (same hash) is already stored *)
  | Executed
      (** the (creator, counter) slot was executed and pruned here: the
          datablock is not stored *)
  | Equivocation of Datablock.t
      (** a *different* datablock with the same (creator, counter) was
          already received — the payload is the earlier one, usable as
          punishable evidence (§4.3 remark). The new variant is stored
          as a Rival: the leader's choice of variant must remain
          resolvable, but this replica never offers it. *)

val create : unit -> t

val floor_window : int
(** The most executed counters a creator's {!floor} holds above its
    contiguous part (1024). *)

val add : ?requested:bool -> t -> Datablock.t -> verdict
(** Files a (signature-verified) datablock. A slot below its creator's
    executed floor gives [Executed], unless [requested] (a fetch reply
    this replica asked for: a confirmed block links that datablock). *)

val find : t -> Crypto.Hash.t -> Datablock.t option

val mem : t -> Crypto.Hash.t -> bool

val missing_links : t -> Crypto.Hash.t list -> Crypto.Hash.t list
(** The links not present in the pool (empty = BFTblock fully backed,
    Algorithm 2 line 16). *)

val has_all_links : t -> Crypto.Hash.t list -> bool
(** [missing_links t links = []] without allocating the missing list —
    the readiness probe runs once per waiting proposal on every datablock
    arrival, the hottest path in the replica at large n. *)

val pending : t -> int
(** Number of Pending datablocks (leader's proposal trigger), in O(1):
    a count kept by every state change. *)

val queued : t -> int
(** Hashes in the arrival queue behind {!take_pending}: every Pending
    entry, plus slots of entries that have left Pending since. A state
    change that would leave more than [2 * pending t + 64] compacts the
    queue to the Pending entries, so it stays within that bound on a
    replica that never takes, whatever the run's length. *)

val take_pending : t -> max:int -> Datablock.t list
(** Removes up to [max] Pending datablocks, oldest first, making them
    Linked. *)

val mark_linked : t -> Crypto.Hash.t -> unit
(** Makes a Pending datablock Linked (followers learn this from
    proposals, so after a view change they do not expect it re-linked).
    On a Rival it makes the slot's accepted variant a Rival instead: the
    proposal chose the other one. *)

val mark_executed : t -> Crypto.Hash.t -> sn:int -> unit
(** Makes a stored datablock Executed by serial [sn], whatever its
    state; {!prune} forgets it once a checkpoint covers [sn]. On a Rival
    it also makes the slot's accepted variant a Rival. *)

val relink_pending : t -> keep_linked:Crypto.Hash.Set.t -> unit
(** View-change recovery at the new leader: datablocks that were linked
    by proposals which never survived into the new view become Pending
    again, so their requests are re-proposed instead of lost. Those in
    [keep_linked] (the redo blocks' links) become or stay Linked.
    Executed and Rival entries never move. *)

val fold : t -> init:'a -> f:('a -> Datablock.t -> linked:bool -> 'a) -> 'a
(** Folds over every stored datablock with [linked] = "not Pending", in
    unspecified order (snapshot building; sort by (creator, counter) for
    a deterministic serialization). *)

val equivocations : t -> (Net.Node_id.t * Datablock.t * Datablock.t) list
(** Collected equivocation evidence: (creator, first, second). *)

val size : t -> int
(** Stored datablocks. *)

val executed : t -> int
(** Stored Executed datablocks, in O(size) (introspection). *)

val prune : t -> lw:int -> unit
(** Garbage collection after a checkpoint at [lw]: drops every
    datablock Executed by a serial [<= lw] and records its (creator,
    counter) slot in the creator's floor, then drops every Rival whose
    slot a floor covers. *)

type floor = {
  creator : Net.Node_id.t;
  base : int;        (** every counter [<= base] was executed and pruned *)
  above : int list;  (** the executed and pruned counters [> base], ascending *)
}
(** One creator's executed-counter floor. [above] holds at most
    {!floor_window} counters: on overflow [base] advances past the
    oldest gap, so a snapshot carries O(n) floors, not the executed
    history. *)

val floors : t -> floor list
(** Every creator's floor, sorted by creator (snapshot building). *)

val restore_floors : t -> floor list -> unit
(** Installs snapshot floors (recovery), replacing any recorded for the
    same creators. *)

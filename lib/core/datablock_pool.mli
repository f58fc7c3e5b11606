(** The datablock pool (Fig. 4): verified datablocks awaiting linkage.

    Indexed by hash for BFTblock link resolution and by (creator,
    counter) for the duplicate/equivocation check of Algorithm 1 line 18.
    The leader additionally tracks which datablocks are not yet linked by
    any proposed BFTblock ("pending").

    Checkpoint garbage collection forgets executed datablocks but keeps
    their [(creator, counter)] slots as a per-creator executed-counter
    {!floor}, so a late copy or a replay of an executed datablock is
    refused on arrival instead of re-entering the pending set. *)

type t

type verdict =
  | Accepted
  | Duplicate              (** same (creator, counter, hash) seen before *)
  | Executed
      (** the (creator, counter) slot was executed and pruned here: the
          datablock is not stored *)
  | Equivocation of Datablock.t
      (** a *different* datablock with the same (creator, counter) was
          already received — the payload is the earlier one, usable as
          punishable evidence (§4.3 remark). The new variant is stored
          (the leader's choice of variant must remain resolvable) but is
          never offered to this replica's proposal path. *)

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
(** Number of unlinked datablocks (leader's proposal trigger), in O(1):
    a count kept by every call that links or unlinks one. *)

val take_pending : t -> max:int -> Datablock.t list
(** Removes up to [max] unlinked datablocks, oldest first, marking them
    linked. *)

val mark_linked : t -> Crypto.Hash.t -> unit
(** Marks a datablock linked (followers learn this from proposals, so
    after a view change they do not expect it re-linked). *)

val relink_pending :
  t -> keep_linked:Crypto.Hash.Set.t -> also_executed:(Crypto.Hash.t -> bool) -> unit
(** View-change recovery at the new leader: datablocks that were linked
    by proposals which never survived into the new view become pending
    again, so their requests are re-proposed instead of lost. Keeps
    linked those in [keep_linked] (redo and still-confirmed blocks) and
    those for which [also_executed] holds. *)

val fold : t -> init:'a -> f:('a -> Datablock.t -> linked:bool -> 'a) -> 'a
(** Folds over every stored datablock with its linked flag, in
    unspecified order (snapshot building; sort by (creator, counter) for
    a deterministic serialization). *)

val equivocations : t -> (Net.Node_id.t * Datablock.t * Datablock.t) list
(** Collected equivocation evidence: (creator, first, second). *)

val size : t -> int
(** Stored datablocks. *)

val prune : t -> keep:(Datablock.t -> bool) -> unit
(** Garbage collection after a checkpoint: drops every datablock failing
    [keep] (the caller passes the executed ones) and records its
    (creator, counter) slot in the creator's floor. *)

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

(** Chained HotStuff (stable leader, pipelined three-chain), written once
    for every baseline that runs it.

    The leader fills a block from its payload pool, proposes it once the
    previous height's QC forms (or a partial block after the propose
    timeout) and aggregates 2f + 1 vote shares through {!Core.Quorum}
    into the next QC. A replica stores a proposal whose justify QC checks
    out and whose data it holds, and votes once per height, in height
    order. QC(h) makes h - 2 committable (three-chain); blocks commit in
    height order, each charging one client acknowledgment per request
    batch it executes.

    What a block carries is the parameter: HotStuff's blocks carry the
    request batches themselves ({!Hs_replica}), chained Leopard's carry
    datablock hashes ([Hybrid.Chained_leopard]). *)

type 'item block = private {
  height : int;
  parent : Crypto.Hash.t;
  items : 'item list;
  payload_bytes : int;  (** request-payload bytes carried inline *)
  wire_bytes : int;
  hash : Crypto.Hash.t;
}

type qc = {
  qc_height : int;
  qc_block : Crypto.Hash.t;
  qc_proof : Crypto.Threshold.aggregate;
}

type 'item msg =
  | Proposal of { block : 'item block; justify : qc option }
  | Vote of { height : int; block_hash : Crypto.Hash.t; share : Crypto.Threshold.share }

val wire_size : 'item msg -> int
val category : 'item msg -> string
val meta : 'item msg Net.Network.meta

(** What a block carries, and the pool it comes from. *)
module type PAYLOAD = sig
  type pool
  type item

  val tag : string
  (** Separates this protocol's block hashes, votes and genesis. *)

  val encode : item -> string
  (** An item's bytes in the block hash. *)

  val wire_bytes : item -> int

  val payload_bytes : item -> int
  (** Request-payload bytes the item carries inline (0 for a link). *)

  val pending : pool -> int
  (** How full the next block would be, in the unit of [take]'s [max]. *)

  val take : pool -> max:int -> item list
  (** The leader's next block contents. *)

  val missing : pool -> item list -> Crypto.Hash.t list
  (** The data this replica lacks to vote for a block carrying these. *)

  val batches : pool -> item list -> Workload.Request.t list option
  (** The request batches a block carrying these executes, or [None]
      while some of their data is missing. *)
end

type outcome =
  | Stored   (** the block is stored (and voted for, unless a higher
                 height already was) *)
  | Waiting  (** the justify checks out but data is missing *)
  | Refused  (** the justify does not check out *)

module Make (P : PAYLOAD) : sig
  val genesis_hash : Crypto.Hash.t
  val make_block : height:int -> parent:Crypto.Hash.t -> P.item list -> P.item block

  val vote_payload : height:int -> block_hash:Crypto.Hash.t -> string
  (** What a vote's threshold share signs. *)

  type 'm t
  (** One replica's chain state, sending ['m] messages. *)

  val create :
    engine:Sim.Engine.t ->
    network:'m Net.Network.t ->
    wrap:(P.item msg -> 'm) ->
    id:Net.Node_id.t ->
    leader:Net.Node_id.t ->
    f:int ->
    tsetup:Crypto.Threshold.setup ->
    tkey:Crypto.Threshold.member_key ->
    silent:bool ->
    cpu:Net.Cpu.t ->
    cost:Crypto.Cost_model.t ->
    block_size:int ->
    propose_timeout:Sim.Sim_time.span ->
    pool:P.pool ->
    commit:(height:int -> digest:Crypto.Hash.t -> Workload.Request.t list -> unit) ->
    'm t
  (** [block_size] is the [max] of the leader's [P.take]; a block with
      fewer items goes out once [propose_timeout] passed since the last
      proposal. [commit] sees every committed height with the batches it
      executes. *)

  val maybe_propose : 'm t -> unit
  (** At the leader: propose the next height if its parent's QC formed
      and the pool fills a block or the propose timeout passed. *)

  val try_vote : 'm t -> P.item block -> qc option -> outcome
  (** A follower's step on a proposal (no CPU charge). It may be retried
      after the missing data arrives, also once a higher height was
      voted: the block is then stored, so the commit loop can pass it. *)

  val sizes : 'm t -> (string * int) list
  (** Entry counts of the [blocks] table (stored proposals) and, at the
      leader, the [votes] table (vote quorums). Both hold only heights
      above the last committed one. *)

  val handle : 'm t -> try_vote:(P.item block -> qc option -> unit) -> P.item msg -> unit
  (** Charges a message's CPU cost, then runs [try_vote] on a proposal or
      aggregates a vote at the leader. *)
end

(** Chained Leopard: datablock decoupling grafted onto chain-based BFT.

    The paper's §4.3 remark: "the decoupling of data delivery ... can
    also be leveraged based on chain-based BFT protocols, like HotStuff,
    to preserve the efficiency while the number of replicas increases."
    This library is that protocol: {!Hotstuff.Chain} (one block per
    height, each carrying a QC for its parent, three-chain commit) with
    blocks that carry datablock hashes, and Leopard's data plane around
    it (non-leaders pack and disseminate datablocks; a follower that
    lacks a proposal's datablocks fetches them from the leader and
    retries the proposal).

    Compared to full Leopard it gives up parallel agreement instances
    (heights are sequential) in exchange for the chain's simpler
    recovery; compared to plain HotStuff it removes the leader's
    Λ × (n−1) egress. The ablation bench runs all three side by side.

    Like the other baselines this library implements the normal case
    only (stable, honest leader): it exists for the throughput/bandwidth
    comparison, and leader replacement for chained protocols is the
    well-trodden HotStuff pacemaker. Leopard's full view change lives in
    {!Core.Replica}. *)

module Links :
  Hotstuff.Chain.PAYLOAD with type pool = Core.Datablock_pool.t and type item = Crypto.Hash.t
(** Datablock hashes from a datablock pool; a block's batches are those
    of its datablocks, once all are in the pool. *)

type cfg = {
  n : int;
  f : int;
  alpha : int;              (** requests per datablock *)
  links_per_block : int;    (** datablock hashes per chain block *)
  payload : int;
  datablock_timeout : Sim.Sim_time.span;
  proposal_timeout : Sim.Sim_time.span;
  cost : Crypto.Cost_model.t;
  cores : int;
}

val make_cfg :
  n:int ->
  ?alpha:int ->
  ?links_per_block:int ->
  ?payload:int ->
  ?datablock_timeout:Sim.Sim_time.span ->
  ?proposal_timeout:Sim.Sim_time.span ->
  ?cost:Crypto.Cost_model.t ->
  ?cores:int ->
  unit ->
  cfg
(** Defaults follow {!Core.Config.paper_batch_sizes} for alpha and use
    BFTsize/4 links per block (chain blocks are smaller since they are
    sequential); timers at 500 ms. *)

val spec : cfg:cfg -> cfg Baseline.options
(** {!Baseline.spec} with [f] from [cfg]. *)

val run : cfg Baseline.spec -> Baseline.report
(** One chained-Leopard cluster, leader 0, clients submitting to the
    honest non-leaders. *)

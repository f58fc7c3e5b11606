(** The chained HotStuff baseline (stable leader, pipelined three-chain).

    {!Chain} with blocks that carry the request batches themselves,
    taken from the leader's {!Core.Mempool}: the full payload travels in
    the proposal, so the leader's egress grows as Λ × (n − 1), the
    bottleneck the paper's Figures 1, 2, 9–12 chart. The comparator is
    the authors' libhotstuff. *)

module Requests :
  Chain.PAYLOAD with type pool = Core.Mempool.t and type item = Workload.Request.t
(** Request batches from a mempool; never missing at a replica. *)

val spec : cfg:Hs_config.t -> Hs_config.t Baseline.options
(** {!Baseline.spec} with [f] from [cfg]. *)

val run : Hs_config.t Baseline.spec -> Baseline.report
(** One HotStuff cluster, leader 0, clients submitting to the leader. *)

(** Chained HotStuff replica (stable leader, pipelined three-chain).

    The leader batches client requests into full blocks, proposes a new
    block whenever the previous height's QC forms, and aggregates votes
    into QCs. A block commits when it heads a three-chain of consecutive
    QCs. This is the state machine whose leader egress grows as
    Λ × (n − 1), the bottleneck the paper's Figures 1, 2, 9–12 chart.
    {!run} drives a cluster of them through {!Baseline.run}. *)

type t

val create :
  engine:Sim.Engine.t ->
  network:Hs_types.msg Net.Network.t ->
  cfg:Hs_config.t ->
  id:Net.Node_id.t ->
  leader:Net.Node_id.t ->
  tsetup:Crypto.Threshold.setup ->
  tkey:Crypto.Threshold.member_key ->
  silent:bool ->
  on_commit:(height:int -> Hs_types.block -> unit) ->
  t

val start : t -> unit
val submit : t -> Workload.Request.t -> unit
(** Client request arrival (clients submit to the leader in libhotstuff). *)

val spec : cfg:Hs_config.t -> Hs_config.t Baseline.options
(** {!Baseline.spec} with [f] from [cfg]. *)

val run : Hs_config.t Baseline.spec -> Baseline.report
(** One HotStuff cluster, leader 0, clients submitting to the leader. *)

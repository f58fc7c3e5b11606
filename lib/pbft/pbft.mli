(** PBFT-style all-to-all BFT baseline (the BFT-SMaRt stand-in of Fig 1).

    Normal-case PBFT: the leader multicasts a pre-prepare carrying the
    full request batch; every replica multicasts a prepare vote, then —
    on 2f matching prepares — a commit vote; a batch executes on 2f + 1
    matching commits. Quadratic vote traffic plus full-payload leader
    dissemination: the communication pattern whose throughput cliff
    motivates the paper (§1, Fig 1). A window of [w] instances runs in
    parallel. View changes are out of scope (the baseline is only used
    for throughput measurements with an honest leader). *)

type cfg = {
  n : int;
  f : int;
  batch_size : int;
  payload : int;
  window : int;            (** parallel instances (PBFT watermark window) *)
  propose_timeout : Sim.Sim_time.span;
  cost : Crypto.Cost_model.t;
  cores : int;
}

val make_cfg :
  n:int ->
  ?batch_size:int ->
  ?payload:int ->
  ?window:int ->
  ?propose_timeout:Sim.Sim_time.span ->
  ?cost:Crypto.Cost_model.t ->
  ?cores:int ->
  unit ->
  cfg

val spec : cfg:cfg -> cfg Baseline.options
(** {!Baseline.spec} with [f] from [cfg]. *)

val run : cfg Baseline.spec -> Baseline.report
(** One PBFT cluster, leader 0, clients submitting to the leader. *)

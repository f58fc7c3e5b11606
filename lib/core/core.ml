(** Leopard: high throughput-preserving BFT for large-scale systems.

    The paper's contribution (ICDCS 2022), on the simulation substrates
    of [Sim], [Net], [Crypto] and [Workload]. The protocol decouples
    data delivery from agreement: non-leader replicas disseminate
    {!Datablock}s, the leader proposes hash-only {!Bftblock}s, and up to
    [k] two-round agreement instances run in parallel behind watermarks,
    with checkpoints and a PBFT-style view change.

    Start with {!Runner} (whole-cluster experiments) or {!Replica} (the
    state machine itself); {!Config} carries every protocol parameter. *)

module Config = Config
(** Protocol parameters: α, BFTsize, [k], timers, cost model, ablation
    knobs (§4, Table 2). *)

module Datablock = Datablock
(** Request packages from non-leader replicas (Algorithm 1, §4.2). *)

module Bftblock = Bftblock
(** Hash-only consensus proposals (§4.2). *)

module Mempool = Mempool
(** Pending request batches at one replica. *)

module Datablock_pool = Datablock_pool
(** Verified datablocks, equivocation evidence, pending-link tracking. *)

module Quorum = Quorum
(** Threshold-share collection for one voting round. *)

module Watchdog = Watchdog
(** Re-sent requests awaiting confirmation: the view-change trigger (1)
    of §4.3. *)

module Ledger = Ledger
(** The log of confirmed BFTblocks with sequential execution. *)

module Msg = Msg
(** Wire messages, channel classes (§6.1) and signing payloads. *)

module Codec = Codec
(** Binary wire/persistence codec for the protocol values. *)

module Store = Store
(** The durable-state seam: write-ahead records and checkpoint snapshots
    a replica persists before sending, replayed by [Replica.recover].
    In-memory and fault-injecting sinks live here; the real-file
    implementation is [Store_file] in the [store] library. *)

module Byzantine = Byzantine
(** Adversarial replica strategies. *)

module Verify = Verify
(** Verification dispatch: datablock/threshold checks as jobs, evaluated
    inline or on an [Exec.Pool] of worker domains. *)

module Platform = Platform
(** The runtime seam: clock, timers, messaging and CPU sink, with the
    simulator implementation ({!Platform.of_sim}); the socket runtime
    lives in [Transport.Runtime]. *)

module Replica = Replica
(** The Leopard replica state machine (§4), including checkpoints
    (Algorithm 3) and the view-change protocol. *)

module Driver = Driver
(** One deployment and its client-side accounting (f+1 confirmation,
    re-sends, safety check, restart), shared by both planes. *)

module Runner = Runner
(** Cluster orchestration and measurement on the simulator. *)

module Scaling_factor = Scaling_factor
(** The paper's scaling-factor metric, analytic and measured (§5.2). *)

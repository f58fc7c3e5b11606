(** The Leopard replica state machine (§4).

    One value of {!t} per replica, driven entirely by network deliveries,
    client submissions and timers on its {!Platform} — the discrete-event
    simulator for protocol studies, or the real-socket transport runtime
    for deployment (the machine is host-agnostic). It implements
    datablock preparation (Algorithm 1), the parallel normal-case
    agreement (Algorithm 2), checkpoints (Algorithm 3) and the
    view-change protocol, with CPU costs charged to the replica's
    {!Net.Cpu} according to the configured cost model.

    Byzantine strategies ({!Byzantine.t}) run the same machine with
    adversarial deviations.

    Batching: a non-leader packs a datablock at α requests or, with a
    positive [datablock_timeout], once its oldest request is that old;
    the leader proposes at BFTsize datablocks or, with a positive
    [proposal_timeout], at most once per [proposal_timeout] with fewer.
    With both timeouts positive the replica also runs the proposal
    clock (DESIGN.md §1): the leader re-tries its short-timer proposal
    the instant the rate limit opens, and a non-leader that votes for a
    fresh partial proposal (no justification, fewer than BFTsize links)
    packs up to α requests at [vote + proposal_timeout - guard - rtt],
    where the guard is [proposal_timeout / 8] and [rtt] its last
    prepare-vote → notarization time, so its datablock lands just before
    the leader's next partial proposal. A full proposal stops the clock
    at the leader and at the voters, and so does a voter's own α-full
    pack. The clock only adds packs, never
    delays one; [leopard_replica_clock_packs_total] counts them. With
    both timeouts at 0 (the Algorithm-1 default) none of this runs. The
    packing rules are {!Packer}'s; the replica supplies its signing,
    write-ahead log and counters. *)

type t

type hooks = {
  on_execute : id:Net.Node_id.t -> sn:int -> Bftblock.t -> Datablock.t list -> unit;
      (** fires when THIS replica executes a BFTblock (serially, in
          serial-number order); {!Driver} derives confirmations and
          latency from it *)
  on_view_change : id:Net.Node_id.t -> view:int -> unit;
      (** fires when the replica enters a new view *)
  on_view_change_trigger : id:Net.Node_id.t -> abandoned:int -> unit;
      (** fires when the replica gives up on a view and sends its
          view-change message (the instant §6.2.4 measures from) *)
  on_propose : id:Net.Node_id.t -> sn:int -> at:Sim.Sim_time.t -> unit;
      (** fires when the replica (as leader) multicasts a proposal; the
          agreement-stage latency breakdown starts there *)
  on_checkpoint : id:Net.Node_id.t -> lw:int -> unit;
      (** fires when a checkpoint certificate advances THIS replica's low
          watermark to [lw] (every serial [<= lw] is durably agreed by a
          quorum); {!Driver} prunes its per-serial bookkeeping on it *)
}

val no_hooks : hooks

val create :
  platform:Platform.t ->
  cfg:Config.t ->
  id:Net.Node_id.t ->
  sk:Crypto.Signature.private_key ->
  pks:Crypto.Signature.public_key array ->
  tsetup:Crypto.Threshold.setup ->
  tkey:Crypto.Threshold.member_key ->
  ?obs:Obs.Registry.t ->
  ?strategy:Byzantine.t ->
  ?hooks:hooks ->
  ?trace:Sim.Trace.t ->
  unit ->
  t
(** Builds the replica and registers its delivery handler on the
    platform. Views start at 1; the initial leader is
    [Config.leader_of_view cfg 1]. *)

val start : t -> unit
(** Arms a [Crash_at] crash; a recovered leader proposes what its
    restored pool holds. Every other timer is armed by the state change
    that creates its deadline, so an idle replica schedules nothing. *)

(** {2 Crash-restart recovery}

    With a {!Store.sink} attached to the platform, the replica logs every
    binding emission (proposals, prepare/commit votes, notarization and
    checkpoint certificates, datablock counters, view entries) before
    sending it, and snapshots its pruned state at each checkpoint.
    {!recover} rebuilds an equivalent replica from that sink after a
    process restart; the BFT stable-storage assumption — a replica never
    votes differently for a serial it already voted on — holds as long as
    the sink was durable up to the crash. *)

val halt : t -> unit
(** Simulates the process dying: the replica stops acting and its
    transport goes down. The in-memory value is dead — build the
    replacement with {!recover} on a fresh platform (or on the same
    socket runtime, whose handler slot the replacement takes over). *)

val recover :
  platform:Platform.t ->
  cfg:Config.t ->
  id:Net.Node_id.t ->
  sk:Crypto.Signature.private_key ->
  pks:Crypto.Signature.public_key array ->
  tsetup:Crypto.Threshold.setup ->
  tkey:Crypto.Threshold.member_key ->
  ?obs:Obs.Registry.t ->
  ?strategy:Byzantine.t ->
  ?hooks:hooks ->
  ?trace:Sim.Trace.t ->
  unit ->
  t
(** {!create}, then restore state from the platform's store: load the
    latest snapshot, replay the log suffix, re-execute the confirmed
    prefix locally (without re-emitting client acks or firing hooks). The
    recovered replica re-sends only deterministic threshold shares —
    identical to the ones sent before the crash — so it can rejoin
    without ever equivocating. With {!Store.null} attached this is
    exactly [create]. *)

type reject_reason = Mempool.reject_reason = Mempool_full | Inactive
type admission = Mempool.admission = Admitted | Rejected of reject_reason

val submit : t -> Workload.Request.t -> admission
(** A client request batch has arrived (post ingress). Renders an
    explicit admission verdict: [Rejected Mempool_full] when the
    configured mempool capacity would be exceeded (clients should back
    off and retry), [Rejected Inactive] when the replica is crashed or
    silent, [Admitted] otherwise. With no capacity configured
    ([mempool_cap = 0]) an active replica always admits — the seed
    behaviour. Re-send-tagged admitted batches are watched: if
    unconfirmed after the view timeout, the replica votes to change the
    view (§4.3, view-change trigger). *)

val ack_wire_bytes : int
(** Bytes of the acknowledgment a replica sends back per executed
    request batch (48; charged as "ack" egress). *)

(** {2 Introspection (tests, metrics, debugging)} *)

val id : t -> Net.Node_id.t
val view : t -> int
val is_leader : t -> bool
val low_watermark : t -> int
val ledger : t -> Ledger.t
val state_hash : t -> Crypto.Hash.t
val mempool_pending : t -> int

val submits_rejected : t -> int
(** Requests refused at mempool admission since this replica was built
    (mirrored to [leopard_replica_submit_rejected_total]). *)

val pool : t -> Datablock_pool.t
val datablocks_created : t -> int

val punished : t -> Net.Node_id.t list
(** Replicas this one has kicked out for equivocation (with
    [punish_equivocators] on). *)

val notar_cache_cap : int
(** Capacity bound of the verified-notarization memo: when the cache
    holds this many (view, block-hash) verdicts it is cleared before the
    next insert, so a long-running (socket-runtime) replica cannot grow
    it without limit. Clearing is always safe — the memo caches a pure
    verification function — and deterministic across identical runs. *)

val notar_cache_len : t -> int
(** Current verified-notarization memo size (always [<= notar_cache_cap];
    introspection for the bound test). *)

val bookkeeping_sizes : t -> (string * int) list
(** Entry counts of the tables a checkpoint or a view change prunes:
    [executed_links] (the pool's Executed datablocks, serials in
    [(lw, executed_up_to]]), [pool_queue] (the pool's arrival queue,
    within [2 * Datablock_pool.pending + 64]),
    [checkpoint_quorums] (above [lw]), [timeout_votes] and [vc_msgs]
    (from the current view up) — introspection for the bound test. *)

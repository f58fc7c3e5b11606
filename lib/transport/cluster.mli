(** An in-process Leopard cluster over real loopback TCP.

    [n] replicas, each with its own {!Conn} endpoint and
    {!Core.Platform}, share one {!Loop} in one process; every message
    between them is framed, written to a socket, read back and decoded —
    the full deployable stack, minus process isolation. A built-in
    client submits request batches round-robin to the non-leader
    replicas. Replica construction, confirmation (the (f+1)-th execution
    of a serial), re-sends, the safety check and restart are
    {!Core.Driver}'s — the same code the simulator's [Core.Runner] runs;
    this module adds the socket wiring, the WAL directories, the verify
    pool ticks, the client and the metrics dump.

    The client is a closed/open hybrid. With the overload controls off
    ([mempool_cap = 0], the default) it
    is the seed's pure open loop. With them on, admission rejections
    re-credit the refused requests to the rate carry (bounded to a
    half-second token bucket) and put the rejecting target on a 100 ms
    retry-after cooldown, and targets whose egress queues are saturated
    ({!Conn.pressure} at or above 1) are skipped for the tick — so a
    sustained 10x overload degrades into bounded queues and counted
    rejections instead of unbounded memory growth.

    Wall-clock time replaces simulated time, so reports are measurements
    of this machine, not of the paper's testbed — the point is to
    exercise the real transport, not to reproduce Figure 8. *)

type t

val create :
  cfg:Core.Config.t ->
  ?load:float ->
  ?outbuf_hwm:int ->
  ?trace:Sim.Trace.t ->
  ?byzantine:(Net.Node_id.t * Core.Byzantine.t) list ->
  ?client_resend:Sim.Sim_time.span ->
  ?verify_domains:int ->
  ?data_dir:string ->
  ?fsync:Store.Wal.fsync_policy ->
  ?store_wrap:(Net.Node_id.t -> Core.Store.sink -> Core.Store.sink) ->
  ?obs:Obs.Registry.t ->
  ?metrics_out:string ->
  ?metrics_interval_ns:int ->
  unit ->
  t
(** Builds the cluster: binds [n] ephemeral loopback listeners, wires
    every pair, creates and starts the replicas. [load] is the client
    request rate (default 2000 req/s) — not offered until
    {!start_load}. [byzantine] assigns adversarial strategies by id
    (default: all honest). [client_resend] makes the driver re-send
    unconfirmed batches after that span (resend-tagged, so receivers arm
    the view-change watchdog — required for any TCP-plane view change;
    see {!Core.Driver} for the policy).

    [verify_domains] sizes the shared verification pool: crypto checks
    above {!Core.Verify.pooled}'s cost cut run on worker domains and
    their completions are drained by a loop tick plus the pool's notify
    fd, so [read(2)] and [write(2)] never wait on a costly check; cheaper
    checks run inline, costing less than the hand-off. Default: on, with
    [min 4 (recommended_domain_count - 1)] workers (at least 1);
    [Some 0] verifies inline on the loop thread (the pre-pool
    behaviour).

    Every replica gets a durable store ([Store.Store_file]) in its own
    WAL directory [node-<id>/] under [data_dir]. With no [data_dir] the
    cluster uses a per-run temp directory and removes it in {!close};
    an explicit [data_dir] is kept (failure artifacts, external
    inspection). [fsync] is the WAL durability policy (default
    [Never] — group-committed writes, durability left to the page
    cache). [store_wrap] decorates each node's sink (fault injection:
    [Core.Store.with_torn_tail]).

    [obs] attaches a metrics registry to every layer: per-replica
    consensus counters, per-node transport mirrors, the shared verify
    pool and the per-node WAL stores, plus the driver's
    [leopard_confirm_latency_ns] histogram and the client aggregates.
    [metrics_out] writes the exposition text to that file — atomically,
    at most once per [metrics_interval_ns] (default 1 s) from a loop
    tick, and a final time in {!close}; when [metrics_out] is given
    without [obs], a private registry is created. *)

val loop : t -> Loop.t

val driver : t -> Core.Driver.t
(** The shared driver: view-change counters, re-sends, the honest
    frontier, equivocation evidence, bookkeeping sizes. *)

val replicas : t -> Core.Replica.t array
val nodes : t -> Runtime.node array

val start_load : t -> unit
val stop_load : t -> unit

val offered : t -> int
val confirmed : t -> int
(** Requests confirmed: counted once, at the (f+1)-th execution of the
    serial containing them. *)

val set_replica_down : t -> Net.Node_id.t -> bool -> unit
(** Fail-stop / revive a replica's transport (the state machine keeps
    its state, as with the simulator's [set_down]). A down replica is
    also dropped from the client's target rotation. *)

val restart_replica : t -> Net.Node_id.t -> unit
(** Process restart: the node's store is crashed (dropping its
    un-flushed buffer) and reopened, then {!Core.Driver.restart} rebuilds
    the replica from the WAL directory on the same node. Unlike
    {!set_replica_down}, only what the store made durable survives. *)

val set_fault_filter :
  t -> Net.Node_id.t -> (dst:Net.Node_id.t -> Core.Msg.t -> Net.Network.fault_verdict) option -> unit
(** Installs (or removes) replica [id]'s outbound link-fault filter (see
    {!Conn.set_fault}); the chaos harness builds partitions and
    drop/delay/duplicate rules out of these. *)

val rejected : t -> int
(** Requests the replicas refused at mempool admission ([Rejected]
    verdicts seen by the client, in requests). Zero with the overload
    controls off. *)

val run_while : t -> (t -> bool) -> unit
(** Drives the shared loop while the predicate holds. *)

val state_converged : t -> bool
(** Every up replica reports the same [executed_up_to] and the same
    {!Core.Replica.state_hash}. *)

val close : t -> unit

(** {2 One-shot runs} *)

type report = {
  n : int;
  offered : int;
  confirmed : int;
  rejected : int;            (** admission rejections seen by the client *)
  throughput : float;        (** confirmed req/s over the load window *)
  latency : Obs.Histogram.snapshot;  (** client-perceived confirmation latency, ns *)
  executed_blocks : int;
  wall_sec : float;          (** load window, wall-clock seconds *)
  dropped_frames : int;      (** {!Conn.dropped}, summed over nodes *)
  transport : Conn.stats;    (** {!Conn.stats} summed over nodes at run end *)
  state_hashes : (Net.Node_id.t * Crypto.Hash.t) list;
  converged : bool;          (** {!state_converged} after the drain *)
  ledgers_agree : bool;      (** position-wise honest-ledger equality *)
}

val pp_report : Format.formatter -> report -> unit

val run :
  cfg:Core.Config.t ->
  ?load:float ->
  ?duration:Sim.Sim_time.span ->
  ?drain:Sim.Sim_time.span ->
  ?min_confirmed:int ->
  ?kill:Net.Node_id.t * Sim.Sim_time.span * Sim.Sim_time.span option ->
  ?trace:Sim.Trace.t ->
  ?verify_domains:int ->
  ?data_dir:string ->
  ?fsync:Store.Wal.fsync_policy ->
  ?obs:Obs.Registry.t ->
  ?metrics_out:string ->
  ?metrics_interval_ns:int ->
  unit ->
  report
(** Creates a cluster, offers load for [duration] (default 5 s; stops
    early once [min_confirmed] is reached, when given), then drains —
    load off, loop running — until {!state_converged} or the [drain]
    bound (default 10 s). [kill] fail-stops a replica at an offset into
    the run and optionally revives it later. [data_dir]/[fsync]
    configure the per-node durable stores (see {!create}). The cluster
    is closed before returning. *)

(** One deployment and its client-side accounting, for either plane.

    The simulator's {!Runner} and the TCP plane's [Transport.Cluster]
    differ only in their wiring (clock, timers, per-replica {!Platform},
    how a client message reaches a replica). The rest is here, once:
    key generation and replica construction; confirmation at a serial's
    (f+1)-th execution (§4.1), with per-serial counters pruned at each
    checkpoint; one batch-dedup rule (a batch counts only while its id
    is in the outstanding table {!offer} fills, and counting removes
    it, so the table holds just the unconfirmed batches); the
    confirm-latency histogram and its [leopard_confirm_latency_ns] /
    [leopard_confirmed_requests_total] instruments; client re-sends
    (§4.3); the safety check and the other verdict inputs; restart. *)

type t

val create :
  cfg:Config.t ->
  key_rng:Sim.Rng.t ->
  platform:(Net.Node_id.t -> Platform.t) ->
  now:(unit -> Sim.Sim_time.t) ->
  schedule:(delay:Sim.Sim_time.span -> (unit -> unit) -> unit) ->
  deliver:(dst:Net.Node_id.t -> size:int -> (unit -> unit) -> unit) ->
  byzantine:(Net.Node_id.t * Byzantine.t) list ->
  resend:Sim.Sim_time.span option ->
  trace:Sim.Trace.t ->
  ?obs:Obs.Registry.t ->
  ?on_confirm:
    (now:Sim.Sim_time.t ->
    proposed_at:Sim.Sim_time.t option ->
    Datablock.t ->
    Workload.Request.t ->
    unit) ->
  unit ->
  t
(** Generates the keys from [key_rng], builds replica [id] on
    [platform id] and starts every replica. [deliver ~dst ~size k] runs
    [k] when a client message of [size] bytes reaches replica [dst] (or
    never, if the plane loses it). [on_confirm] sees each batch as it is
    counted, with its serial's first proposal instant if one was seen. *)

val arm_resends : t -> ?until:Sim.Sim_time.t -> unit -> unit
(** Starts the re-send scan (a no-op with [resend = None]). Every
    offered batch is due [resend] after its birth. One scan is armed at
    the earliest due instant; it re-sends each due, still unconfirmed
    batch resend-tagged to min(9, f+1, n-1) replicas from
    {!Workload.Assign.replicas_for}, backs it off to 2x, 4x and at most
    8x [resend], and re-arms at the next due instant. No scan is armed
    past [until]. *)

val offer : t -> Workload.Request.t -> unit
(** Registers a batch the client has sent: countable from now on, and
    due for re-sending if re-sends are on. *)

val replicas : t -> Replica.t array
(** Indexed by id; {!restart} replaces entries in place. *)

val is_byzantine : t -> Net.Node_id.t -> bool
val honest_ids : t -> Net.Node_id.t list

val confirmed : t -> int
(** Requests confirmed, each counted once. *)

val executed_blocks : t -> int
(** Serials executed by at least f+1 replicas. *)

val pack_age_max : t -> Sim.Sim_time.span
(** The oldest a request was when an honest replica packed it: the
    largest datablock creation instant minus batch birth over the
    counted batches, leaving out re-sent copies (they keep the
    original birth) and datablocks of Byzantine creators. *)

val latency : t -> Obs.Histogram.snapshot
(** Birth-to-confirmation latency (ns) of every confirmed batch so far.
    The driver keeps this histogram for its own run; the registry's
    [leopard_confirm_latency_ns] may outlive the run. *)

val resends : t -> int
(** Re-sent copies handed to [deliver] so far. *)

val view_changes : t -> int
(** Highest view any replica entered, minus one. *)

val vc_trigger_to_entry : t -> float option
(** Seconds from the first view-change trigger to the last view entry. *)

val final_view : t -> int
(** Highest view among the honest replicas. *)

val synced : t -> Net.Node_id.t -> bool
(** Replica [id] has executed something and is within [k] serials of the
    honest execution frontier (the highest honest [executed_up_to]). *)

val equivocations : t -> int
(** Equivocation evidence held by the honest replicas, summed. *)

val ledgers_agree : t -> bool
(** Position-wise equality of the honest executed ledgers (Theorem 5.3);
    serials pruned below a checkpoint agree vacuously. *)

val restart : t -> Net.Node_id.t -> platform:Platform.t -> unit
(** Process restart: halts replica [id], rebuilds it on [platform] with
    [Replica.recover] and the retained keys, brings the platform's
    endpoint back up and starts the replacement. *)

val bookkeeping_sizes : t -> (string * int) list
(** Sizes of the per-serial counters (["serials"]), the unconfirmed
    batches (["outstanding"]) and the re-send deadlines
    (["resend_queue"]). *)

(** Cluster orchestration: build a Leopard deployment on the simulator,
    drive a workload, and measure what the paper measures.

    The deployment and the client-side accounting (f+1 confirmation,
    re-sends, the safety check, restart) are {!Driver}'s, shared with the
    TCP plane; this module adds the simulator wiring — engine, network,
    the open-loop {!Workload.Generator} — and the sim-only measurements:
    bandwidth views and the Table 3 stage decomposition.

    This is the main entry point of the library: benches and examples
    describe an experiment as a {!spec} and read the {!report}. Tests can
    instead keep the {!t} handle and inspect replicas mid-run. *)

type spec = {
  cfg : Config.t;
  link : Net.Network.link;
  seed : int64;
  load : float;                         (** offered load, requests/s *)
  duration : Sim.Sim_time.span;         (** total simulated time *)
  warmup : Sim.Sim_time.span;           (** excluded from rate windows *)
  load_until : Sim.Sim_time.span option;    (** stop offering load early *)
  byzantine : (Net.Node_id.t * Byzantine.t) list;  (** strategy overrides *)
  stop_leader_at : Sim.Sim_time.span option;
      (** fail-stop the initial leader (view-change experiments, §6.2.4) *)
  client_resend_timeout : Sim.Sim_time.span option;
      (** clients re-send unconfirmed requests after this delay (§4.3) *)
  gst : Sim.Sim_time.span option;
      (** pre-GST adversarial delays up to one view timeout *)
  trace : bool;                         (** record a shared protocol trace *)
  stores : Store.sink array option;
      (** per-replica durable-state sinks (index = replica id), required
          for {!restart_replica}; [None] (the default) attaches
          {!Store.null} everywhere — no persistence, and the report
          bytes are identical to a spec without the field. *)
  obs : Obs.Registry.t option;
      (** metrics registry: replicas register [leopard_replica_*]
          counters and the driver a [leopard_confirm_latency_ns]
          histogram. Observation only — {!report} bytes are identical
          with and without it (pinned by test). *)
}

val spec :
  cfg:Config.t ->
  ?link:Net.Network.link ->
  ?seed:int64 ->
  ?load:float ->
  ?duration:Sim.Sim_time.span ->
  ?warmup:Sim.Sim_time.span ->
  ?load_until:Sim.Sim_time.span ->
  ?byzantine:(Net.Node_id.t * Byzantine.t) list ->
  ?stop_leader_at:Sim.Sim_time.span ->
  ?client_resend_timeout:Sim.Sim_time.span ->
  ?gst:Sim.Sim_time.span ->
  ?trace:bool ->
  ?stores:Store.sink array ->
  ?obs:Obs.Registry.t ->
  unit ->
  spec
(** Defaults: the c5.xlarge-like link, seed 42, 10^5 req/s offered, 20 s
    duration with 5 s warmup, all replicas honest, no leader stop, no
    client re-send, synchronous network, no trace. *)

val silent_f : Config.t -> (Net.Node_id.t * Byzantine.t) list
(** [f] silent Byzantine replicas (the largest tolerable number, touching
    the 1/3 bound as in all the paper's experiments), chosen among
    non-leader replicas of view 1. *)

type bandwidth_view = {
  sent_bytes : int;
  received_bytes : int;
  sent_by_category : (string * int) list;
  received_by_category : (string * int) list;
}

type report = {
  n : int;
  offered : int;                 (** requests offered *)
  confirmed : int;               (** requests confirmed (f+1 executions) *)
  throughput : float;            (** confirmed req/s over the window *)
  goodput_bps : float;           (** confirmed payload bits/s over the window *)
  latency : Obs.Histogram.snapshot;  (** client-perceived confirmation latency, ns *)
  stage_seconds : (string * float) list;
      (** request-weighted latency decomposition (Table 3 components) *)
  leader : bandwidth_view;       (** initial leader's post-warmup traffic *)
  non_leader : bandwidth_view;   (** one honest non-leader's traffic *)
  leader_bps : float;            (** leader sent+received bits/s (Fig 2/10) *)
  window_sec : float;            (** measurement window length *)
  executed_blocks : int;         (** serials executed by >= f+1 replicas *)
  view_changes : int;            (** successful view entries beyond view 1 *)
  final_view : int;              (** max view among honest replicas *)
  vc_trigger_to_entry : float option;
      (** seconds from first trigger to the last honest view entry *)
  vc_bytes : int;                (** view-change category bytes, all replicas *)
  equivocations_detected : int;
  all_confirmed : bool;          (** every offered request confirmed *)
  safety_ok : bool;              (** honest ledgers agree position-wise *)
}

val run : spec -> report
(** Builds a cluster, runs it for [spec.duration], and summarizes. *)

(** {2 Incremental interface (tests)} *)

type t

val create : spec -> t
val engine : t -> Sim.Engine.t

val network : t -> Msg.t Net.Network.t

val driver : t -> Driver.t
(** The shared driver: confirmation and view-change counters, the
    safety check ({!Driver.ledgers_agree}), the honest frontier. *)

val replicas : t -> Replica.t array
val trace : t -> Sim.Trace.t
val run_until : t -> Sim.Sim_time.span -> unit
(** Advances the simulation to the given instant (absolute). *)

val restart_replica : t -> Net.Node_id.t -> unit
(** {!Driver.restart} on a fresh sim platform over the replica's sink in
    [spec.stores] (from genesis if none were attached). Unlike a
    transport-level crash ([Network.set_down]), memory does not survive. *)

val report : t -> report
(** Summarizes the run so far. *)


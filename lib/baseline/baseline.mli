(** The simulation harness shared by the comparison baselines (HotStuff,
    PBFT, chained Leopard).

    Every baseline runs the same way: one engine and network, one key
    split, the protocol's replicas with the last [silent] of them mute,
    an open-loop client generator, a warmup reset of the traffic
    accounting, and a request confirmed once f + 1 replicas executed the
    height that carries it. This module holds that once, so the figures
    that put the baselines side by side measure them with the same code.
    A protocol passes in only its keygen, replicas, commit hook, client
    targets and generator tick. *)

type 'cfg spec = {
  cfg : 'cfg;
  link : Net.Network.link;
  seed : int64;
  load : float;
  duration : Sim.Sim_time.span;
  warmup : Sim.Sim_time.span;
  silent : int;   (** number of silent Byzantine replicas (never the leader) *)
}

type 'cfg options =
  ?link:Net.Network.link ->
  ?seed:int64 ->
  ?load:float ->
  ?duration:Sim.Sim_time.span ->
  ?warmup:Sim.Sim_time.span ->
  ?silent:int ->
  unit ->
  'cfg spec

val spec : cfg:'cfg -> f:int -> 'cfg options
(** Defaults: the default link, seed 42, 1e5 req/s, 20 s with a 5 s
    warmup, and [silent = f] (touching the resilience bound, like the
    paper's runs). *)

type report = {
  n : int;
  offered : int;
  confirmed : int;
  throughput : float;             (** confirmed req/s over the window *)
  goodput_bps : float;            (** confirmed payload bits/s over the window *)
  latency : Obs.Histogram.snapshot;   (** submit to f + 1 execution, ns *)
  leader_sent_bytes : int;
  leader_received_bytes : int;
  leader_bps : float;
  window_sec : float;
  committed_heights : int;        (** heights executed by f + 1 replicas *)
  safety_ok : bool;
}

(** The f + 1 commit accumulator. *)
module Tally : sig
  type t

  val create : f:int -> t

  val offer : t -> Workload.Request.t -> unit
  (** Registers a batch as outstanding: only outstanding batches are
      counted, each once. *)

  val commit :
    t -> at:Sim.Sim_time.t -> height:int -> digest:Crypto.Hash.t -> Workload.Request.t list -> unit
  (** One replica executed [height], whose block has [digest] and carries
      these batches. A second digest at a height clears {!safety_ok}. On
      the (f + 1)-th execution of a height its outstanding batches are
      confirmed at [at]. *)

  val confirmed : t -> int
  val committed_heights : t -> int
  val safety_ok : t -> bool
end

type 'msg ctx = {
  engine : Sim.Engine.t;
  network : 'msg Net.Network.t;
  key_rng : Sim.Rng.t;
  leader : Net.Node_id.t;
  is_silent : Net.Node_id.t -> bool;
  commit : height:int -> digest:Crypto.Hash.t -> Workload.Request.t list -> unit;
      (** A replica's commit hook: {!Tally.commit} at the current instant. *)
}

type clients = {
  targets : Net.Node_id.t list;
  submit : Workload.Generator.submit;
}

val run :
  'cfg spec ->
  n:int ->
  f:int ->
  payload:int ->
  meta:'msg Net.Network.meta ->
  ?tick:Sim.Sim_time.span ->
  ('msg ctx -> clients) ->
  report
(** [run sp ~n ~f ~payload ~meta start] creates the engine, the network
    and the key RNG, calls [start] to generate keys, build and start the
    replicas (leader 0), then starts the generator on the returned
    clients and resets the traffic accounting at the warmup. [tick] is
    the generator's batching period; by default the span in which the
    load offers about 32 requests, kept within [100 us, 20 ms] (clients
    send small wire batches, so the leader's block batching sets the
    block size). *)

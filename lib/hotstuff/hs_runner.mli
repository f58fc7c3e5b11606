(** HotStuff cluster orchestration, mirroring {!Core.Runner} so benches
    can run the two systems back-to-back in identical environments. *)

type spec = {
  cfg : Hs_config.t;
  link : Net.Network.link;
  seed : int64;
  load : float;
  duration : Sim.Sim_time.span;
  warmup : Sim.Sim_time.span;
  silent : int;   (** number of silent Byzantine replicas (non-leader) *)
}

val spec :
  cfg:Hs_config.t ->
  ?link:Net.Network.link ->
  ?seed:int64 ->
  ?load:float ->
  ?duration:Sim.Sim_time.span ->
  ?warmup:Sim.Sim_time.span ->
  ?silent:int ->
  unit ->
  spec
(** Defaults mirror {!Core.Runner.spec}; [silent] defaults to [f]
    (touching the resilience bound, like the paper's runs). *)

type report = {
  n : int;
  offered : int;
  confirmed : int;
  throughput : float;
  goodput_bps : float;
  latency : Obs.Histogram.snapshot;
  leader_sent_bytes : int;
  leader_received_bytes : int;
  leader_bps : float;
  window_sec : float;
  committed_heights : int;
  safety_ok : bool;
}

val run : spec -> report

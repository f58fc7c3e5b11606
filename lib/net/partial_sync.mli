(** Partial synchrony adversary (Dwork–Lynch–Stockmeyer model, §3.2).

    Before the global stabilization time (GST) the adversary may delay
    messages arbitrarily; after GST every message arrives within a known
    bound Δ. Each scheduler below is an extra-delay hook for
    {!Network.set_extra_delay}. *)

type scheduler =
  now:Sim.Sim_time.t -> src:Node_id.t -> dst:Node_id.t -> Sim.Sim_time.span

val until_gst :
  rng:Sim.Rng.t -> gst:Sim.Sim_time.t -> max_delay:Sim.Sim_time.span -> scheduler
(** Uniform random delay in [\[0, max_delay\]] before GST; zero after.
    Messages sent just before GST may still land up to [max_delay] late,
    matching the model (the bound holds for messages *sent* after GST). *)

val target_node :
  gst:Sim.Sim_time.t -> victim:Node_id.t -> delay:Sim.Sim_time.span -> scheduler
(** Delays everything to and from [victim] before GST — an adversary
    isolating one replica (e.g. the collector/leader). *)

val geo :
  regions:(Node_id.t -> int) -> rtt_matrix:(int -> int -> Sim.Sim_time.span) -> scheduler
(** Static geo-distribution: adds the one-way inter-region delay
    [rtt_matrix (regions src) (regions dst)] to every message, for
    modelling the paper's geo-distributed deployments (§4.1 notes
    replicas receive requests from their neighbouring clients). *)

val combine : scheduler list -> scheduler
(** Sum of the component delays. *)

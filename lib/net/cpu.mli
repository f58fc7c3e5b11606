(** A replica's serial processor.

    Expensive operations (signature verification, share aggregation) are
    submitted with a cost from {!Crypto.Cost_model}; tasks run in FIFO
    order, each completing [cost] after the previous one. This reproduces
    the CPU-side bottlenecks the paper discusses (e.g. BLS verification
    bursts at the leader). *)

type t

val create : Sim.Engine.t -> cores:int -> t
(** [create engine ~cores] models [cores] identical cores fed from one
    FIFO queue (c5.xlarge has 4 vCPUs). Requires [cores >= 1]. *)

val submit : t -> cost:Sim.Sim_time.span -> (unit -> unit) -> unit
(** [submit t ~cost f] runs [f] once a core has spent [cost] on the task,
    after all previously submitted work. Zero-cost tasks still respect
    FIFO order with respect to queued work. *)

val submit_ns : t -> cost_ns:int -> (unit -> unit) -> unit
(** [submit] with the cost as a nanosecond int — allocation-free for
    callers whose cost arithmetic is already in immediate ints. *)

val busy_span : t -> Sim.Sim_time.span
(** Total core-busy time accumulated (for utilization metrics). *)

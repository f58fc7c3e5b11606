(** A NIC serializer: items occupy the line for [size / rate] each.

    Models one direction of a network interface. The egress side uses two
    priority classes — the prototype's channel ① (consensus messages) and
    channel ② (datablocks), §6.1 — where high-priority items overtake
    queued low-priority ones but never preempt an in-flight transmission. *)

type 'a t

type priority = High | Low

val create :
  ?lanes:int -> Sim.Engine.t -> rate_bps:float -> on_done:('a -> unit) -> 'a t
(** [create engine ~rate_bps ~on_done] is an idle serializer transmitting
    at [rate_bps] bits per second; [rate_bps <= 0.] means an unlimited
    line (items complete immediately). [on_done item] fires when the item
    has fully left the line.

    [lanes] (default 1) models the paper's "parallel TCP connections"
    future-work optimization (§6.2.1): the line is split into [lanes]
    independent serializers of [rate_bps / lanes] each, so a queued small
    message no longer waits for a whole in-flight datablock — less
    head-of-line blocking at the same total rate. *)

val submit : 'a t -> priority:priority -> size:int -> 'a -> unit
(** Queues an item of [size] bytes. *)

val submit_many : 'a t -> priority:priority -> size:int -> copies:int -> 'a -> unit
(** [submit_many t ~priority ~size ~copies p] behaves exactly like
    [copies] consecutive [submit]s of [p] — same transmission start and
    completion instants, [on_done p] once per copy — but enqueues a
    single shared entry, so a wide multicast costs O(1) allocation at
    the NIC instead of O(copies). [copies <= 0] is a no-op. Copies
    started after a {!set_rate} change transmit at the new rate, like
    separately queued items would. *)

val busy_span : 'a t -> Sim.Sim_time.span
(** Accumulated transmission time (for utilization). *)

val set_rate : 'a t -> float -> unit
(** Changes the line rate for subsequently started transmissions. *)

val tx_time : rate_bps:float -> size:int -> Sim.Sim_time.span
(** Serialization delay of [size] bytes at [rate_bps]; exposed for tests
    and analytic cross-checks. *)

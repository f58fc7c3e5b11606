(** Point-to-point, authenticated, reliable network among [n] replicas.

    Matches the system model of §3.2 on top of a NIC-level bandwidth
    model: a unicast first serializes through the sender's egress NIC,
    then crosses the wire (propagation delay, plus any adversarial delay
    before GST — see {!Partial_sync}), then serializes through the
    receiver's ingress NIC, and is finally handed to the receiver's
    handler. A multicast is [n - 1] independent unicasts on the sender's
    egress NIC — this is precisely the leader bottleneck of Eq. (1).

    External client traffic enters through {!inject}, which charges only
    the destination's ingress NIC. Every byte is accounted per category in
    {!Bandwidth}. *)

type 'msg meta = {
  size : 'msg -> int;        (** wire size in bytes *)
  category : 'msg -> string; (** bandwidth-accounting category *)
  priority : 'msg -> Nic.priority;
      (** channel ① ([High]: consensus messages) vs ② ([Low]: datablocks) *)
}

type link = {
  out_bps : float;           (** per-replica egress rate, bits/s *)
  in_bps : float;            (** per-replica ingress rate, bits/s *)
  prop_delay : Sim.Sim_time.span;  (** one-way propagation delay *)
  jitter : Sim.Sim_time.span;      (** uniform extra delay in [0, jitter] *)
  lanes : int;
      (** parallel connections per NIC direction (default 1); the
          paper's parallel-TCP future-work optimization — same total
          rate, less head-of-line blocking *)
}

val default_link : link
(** c5.xlarge-like: 4.9 Gbit/s each way, 1 ms propagation, 200 µs jitter. *)

val mbps : float -> float
(** [mbps x] is [x] megabits per second, for throttling sweeps. *)

type 'msg t

val create : Sim.Engine.t -> n:int -> meta:'msg meta -> link:link -> 'msg t
(** A network of [n] replicas with identical links. Requires [n >= 1]. *)

val engine : 'msg t -> Sim.Engine.t
val n : 'msg t -> int

val delivered_messages : 'msg t -> int
(** Protocol messages handed to a replica handler so far (multicast
    copies count once per destination); the macro-benchmark's
    words-per-delivered-message denominator. *)

val set_handler : 'msg t -> Node_id.t -> (src:Node_id.t -> 'msg -> unit) -> unit
(** Installs the delivery callback of a replica. *)

val send : 'msg t -> src:Node_id.t -> dst:Node_id.t -> 'msg -> unit
(** Unicast. Sending to self delivers through loopback (no NIC cost). *)

val multicast : 'msg t -> src:Node_id.t -> 'msg -> unit
(** Unicast to every replica except [src], in replica order. *)

val inject : 'msg t -> dst:Node_id.t -> size:int -> category:string -> (unit -> unit) -> unit
(** External (client) traffic: charges [size] bytes on [dst]'s ingress
    NIC, then runs the callback. *)

val charge_egress : 'msg t -> src:Node_id.t -> size:int -> category:string -> unit
(** Accounts [size] bytes of external egress (e.g. acknowledgments back
    to clients) and occupies the egress NIC, without an in-network
    destination. *)

val set_down : 'msg t -> Node_id.t -> bool -> unit
(** A down replica neither sends nor receives (messages are dropped);
    used to stop leaders for view-change experiments. *)

val is_down : 'msg t -> Node_id.t -> bool

val set_extra_delay :
  'msg t -> (now:Sim.Sim_time.t -> src:Node_id.t -> dst:Node_id.t -> Sim.Sim_time.span) -> unit
(** Installs an adversarial scheduler hook adding wire delay per message
    (see {!Partial_sync}). *)

(** A link fault's verdict on one message to one destination, the one
    type both planes take ([Faults.Injector] renders it; the TCP plane
    applies it through [Transport.Conn.set_fault]). Here it is consulted
    as each protocol message crosses the wire (post-egress, per
    destination — a multicast can be faulted towards some receivers and
    not others). [Delay d] delivers the message [d] later than its normal
    arrival; [Duplicate] delivers two copies back to back. Self-deliveries
    and client {!inject} traffic are not subject to faults (partitions cut
    wires, not processes — use {!set_down} for crashes). *)
type fault_verdict =
  | Pass
  | Drop
  | Delay of Sim.Sim_time.span
  | Duplicate

val set_fault_hook :
  'msg t ->
  (now:Sim.Sim_time.t -> src:Node_id.t -> dst:Node_id.t -> 'msg -> fault_verdict) ->
  unit
(** Installs the fault injector (see [Faults.Injector]). At most one hook
    is active; installing replaces the previous one. *)

val clear_fault_hook : 'msg t -> unit

val set_rates : 'msg t -> out_bps:float -> in_bps:float -> unit
(** Re-throttles every replica's NICs (the NetEm sweep of §6.2.3). *)

val stats : 'msg t -> Node_id.t -> Bandwidth.t
(** The replica's bandwidth account. *)

val reset_stats : 'msg t -> unit
(** Zeroes all bandwidth accounts (end of warmup). *)


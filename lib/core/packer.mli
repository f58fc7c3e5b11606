(** Datablock preparation (Algorithm 1, §4.2): when a replica's pending
    request batches leave as a datablock, and which of them.

    One packer per replica, shared by Leopard ({!Replica}) and chained
    Leopard ([Hybrid.Chained_leopard]). It owns the replica's
    {!Mempool} and runs four rules over it:

    - the α rule: pack α requests as soon as the mempool holds them;
    - the age rule: with a positive [datablock_timeout] T, pack
      everything once the oldest request is T old, at most once per T
      (the partial-pack rate limit). Its deadline is armed at the
      head's birth + T, never polled;
    - the idle pack: a batch that enters an empty mempool, with the
      rate limit open and no datablock sent for T, leaves at once. The
      rules then count it as the mempool's head (the idle copy) until
      the next pack by any rule closes the copy, so no other request
      leaves later than it would have;
    - the proposal clock (both timeouts positive): a vote for a fresh
      partial proposal arms one pack aimed to land a guard before the
      leader's next short-timer proposal ({!voted}).

    The host keeps what differs between protocols: its message type,
    signing, write-ahead log and counters (behind [emit]), and who may
    pack (behind [may_pack]). Every deadline is one [schedule_at]; an
    idle replica schedules nothing. *)

type rule =
  | Alpha  (** α requests *)
  | Age    (** the age rule *)
  | Idle   (** the idle pack *)
  | Clock  (** the proposal clock *)
  | Flush  (** {!flush} *)

type seam = {
  now : unit -> Sim.Sim_time.t;
  schedule_at : at:Sim.Sim_time.t -> (unit -> unit) -> unit;
      (** a one-shot callback; never cancelled (a stale one does nothing) *)
  may_pack : idle:bool -> bool;
      (** whether the replica packs now: it is active and honest, and not
          a leader that packs nothing. [~idle:true] asks about the idle
          pack, which no leader makes. *)
  emit : rule -> Workload.Request.t list -> unit;
      (** sign and multicast one datablock of these batches (never
          empty) *)
}

type t

val create :
  seam ->
  alpha:int ->
  datablock_timeout:Sim.Sim_time.span ->
  proposal_timeout:Sim.Sim_time.span ->
  ?mempool_cap:int ->
  unit ->
  t
(** [datablock_timeout] at 0 turns off the age rule and the idle pack;
    the proposal clock runs only with both timeouts positive.
    [mempool_cap] is the {!Mempool} admission bound (0, the default:
    none). *)

val mempool : t -> Mempool.t

val offer : t -> Workload.Request.t -> Mempool.admission
(** Admits a client batch into the mempool ({!Mempool.try_add}),
    noting first whether it finds the replica idle. Packs nothing: the
    host calls {!pack} next, which idle packs a batch so noted. *)

val pack : t -> unit
(** Runs the α rule, the age rule and the idle pack (when the batch of
    the last {!offer} found the replica idle), then arms the age
    deadline. Nothing, when [may_pack ~idle:false] is false. *)

val flush : t -> unit
(** Packs the mempool into one datablock ([Flush]), capped at the
    admission bound if there is one, whatever [may_pack] says, and
    closes the idle copy: a replica about to lead sends on what it
    holds. *)

val voted : t -> partial:bool -> rtt:Sim.Sim_time.span option -> unit
(** The proposal clock's input, at the replica's vote for a fresh
    proposal (no justification). A [partial] one (fewer than BFTsize
    links) arms a clock pack [proposal_timeout - guard - rtt] from now,
    if the age rule packed since the last α-full pack and that delay is
    positive; [rtt] is the last prepare-vote → notarization time
    ([None]: none measured yet, no pack). A full one stops the clock.
    Does nothing unless both timeouts are positive. *)

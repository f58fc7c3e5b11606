(** The runtime seam between the Leopard state machine and whatever
    hosts it.

    {!Replica} is written against this record alone: a clock, a timer
    service, a message plane and a CPU-cost sink. Two implementations
    exist — {!of_sim} wraps the discrete-event engine and the simulated
    network (the n=300+ study tool), and [Transport.Runtime.platform]
    wraps the real-socket event loop (deployable replicas over TCP).
    The sim wrapper is a set of one-line closures over exactly the calls
    {!Replica} used to make directly, so threading the seam changes no
    simulated behaviour (the byte-identical-report test pins this).

    Instants are {!Sim.Sim_time.t} in both worlds: nanoseconds since the
    start of the simulation, or since the start of the socket event
    loop. *)

type t = {
  n : int;  (** number of replicas in the deployment *)
  now : unit -> Sim.Sim_time.t;
  schedule : delay:Sim.Sim_time.span -> (unit -> unit) -> unit;
      (** run a callback [delay] from now. Replicas never cancel, so no
          handle is returned; same-instant callbacks fire in schedule
          order (FIFO) on both implementations. *)
  schedule_at : at:Sim.Sim_time.t -> (unit -> unit) -> unit;
  set_handler : (src:Net.Node_id.t -> Msg.t -> unit) -> unit;
      (** install the replica's delivery callback (exactly once, at
          construction) *)
  send : dst:Net.Node_id.t -> Msg.t -> unit;
      (** unicast; sending to self delivers through loopback *)
  multicast : Msg.t -> unit;  (** unicast to every replica except self *)
  charge_egress : size:int -> category:string -> unit;
      (** account external egress (client acks). A bandwidth-model
          concept: the socket runtime ignores it (real acks would be
          real writes). *)
  submit : cost:Sim.Sim_time.span -> (unit -> unit) -> unit;
      (** run a callback after charging [cost] of CPU time. The sim
          charges it on the replica's {!Net.Cpu} core model; the socket
          runtime runs the task at the next loop turn (the real crypto
          already cost real time). FIFO w.r.t. previously submitted
          work in both. *)
  submit_ns : cost_ns:int -> (unit -> unit) -> unit;
      (** {!submit} with the cost as a nanosecond int (allocation-free
          sim hot path) *)
  set_down : bool -> unit;
      (** fail-stop support: a down replica neither sends nor receives *)
  verify : Verify.dispatch;
      (** check a datablock and continue with the verdict. The sim plane
          continues synchronously at the dispatch point
          ({!Verify.inline}); the socket runtime continues cheap checks
          synchronously and costly ones at a later loop tick, after
          {!Exec.Pool.drain} ({!Verify.pooled}), so the continuation
          must re-check captured replica state. Threshold checks do not
          pass here: they are direct calls. *)
  store : Store.sink;
      (** durable state. {!Replica} logs votes and certificates here
          before sending them and [Replica.recover] replays them after a
          process restart; {!Store.null} (the sim default) disables
          persistence entirely. The log callback is synchronous and
          schedules nothing, so attaching a sink never perturbs the
          event order. *)
}

val of_sim :
  ?store:Store.sink ->
  engine:Sim.Engine.t ->
  network:Msg.t Net.Network.t ->
  id:Net.Node_id.t ->
  cores:int ->
  unit ->
  t
(** The simulator implementation: clock and timers from [engine],
    messaging from [network] (as replica [id]), CPU costs charged on a
    fresh [cores]-core {!Net.Cpu}, verification by {!Verify.inline}
    (the CPU model charges its cost). [store] defaults to {!Store.null}
    (no persistence); restart scenarios pass {!Store.mem} sinks. *)

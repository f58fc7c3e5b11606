(** The socket implementation of {!Core.Platform}.

    One {!node} per replica: its {!Conn} endpoint plus the
    {!Core.Platform.t} handed to [Replica.create]. Clock and timers come
    from the shared {!Loop}; [send]/[multicast] frame messages onto TCP
    connections; [submit] runs the task at the next loop turn (real
    crypto already cost real time, there is no core model to charge);
    [charge_egress] is a no-op (a bandwidth-accounting concept).

    Several nodes may share one loop (the in-process [local-cluster]) or
    each own their own in separate processes — the seam is the same. *)

type node

val node :
  loop:Loop.t ->
  id:Net.Node_id.t ->
  n:int ->
  ?obs:Obs.Registry.t ->
  ?max_frame:int ->
  ?outbuf_hwm:int ->
  ?pool:Pool.t ->
  ?verify:Core.Verify.dispatch ->
  ?store:Core.Store.sink ->
  unit ->
  node
(** [verify] defaults to {!Core.Verify.inline}; the cluster harness
    passes {!Core.Verify.pooled} so costly crypto checks run on worker
    domains and their continuations are delivered by a loop tick
    draining the pool (see {!Cluster.create}). [store] defaults to {!Core.Store.null};
    the cluster harness passes a per-node file-backed sink so replicas
    survive process restarts. *)

val platform : node -> Core.Platform.t
val conn : node -> Conn.t

val listen : node -> ?port:int -> unit -> int
(** Binds the node's listener; returns the actual port. *)

val set_peer_addr : node -> Net.Node_id.t -> Unix.sockaddr -> unit

val set_down : node -> bool -> unit
(** Fail-stop the node (see {!Conn.set_down}); also what the platform's
    own [set_down] does. *)

(** Connection management for one node: dial, accept, buffer, reconnect.

    Each node owns one {!t}: a listening socket peers dial into, plus one
    outgoing connection per peer it has sent to. Connections are
    asymmetric — a node {e sends} on connections it dialed and
    {e receives} on connections it accepted; the first frame on every
    dialed connection is a [hello] naming the dialer, so the acceptor
    can attribute everything that follows.

    Sending never blocks the event loop. Bytes that do not fit in the
    kernel buffer wait in a per-peer queue; once the queue passes the
    high-water mark, further frames to that peer are {e dropped whole}
    and counted ({!dropped}) — BFT protocols tolerate message loss, a
    stalled peer must not wedge or balloon the sender. The drop policy is
    kind-aware: bulk frames (datablocks, fetch replies) stop being
    admitted at the HWM, while consensus-critical frames (votes, proofs,
    view-change traffic) keep a reserved headroom above it, so agreement
    progress is never starved by datablock congestion. A frame cut mid-
    write by a broken connection is likewise dropped, never resumed on
    the next connection (resuming would corrupt the peer's framing).

    Failed outgoing connections redial with capped exponential backoff
    plus jitter. The backoff resets only after a connection outlives the
    wait that preceded it, so a downed host whose listener accepts and
    then closes is redialed ever more slowly; a hello from a peer whose
    redial is pending cuts the wait short. {!set_down} models a crashed host: every connection is
    torn down and queued bytes discarded; on revival, peers' backoff
    redials and the node's own lazy dials knit the mesh back together.

    The data plane is zero-copy where it counts: {!multicast} encodes a
    frame once and queues the same immutable string to every peer
    (per-peer write offsets make partial writes safe on shared frames);
    small queued frames are coalesced into one [write(2)] through a
    pooled gather buffer; reads land in a pooled scratch buffer and
    payloads decode in place from it. Steady-state sends and receives
    allocate nothing beyond the frame itself and the decoded message.

    Transport memory is per node, not per connection: one 64 KiB read
    scratch and one 64 KiB gather buffer, shared by all of the node's
    connections, plus a buffer for each frame a read left incomplete,
    held only until that frame's last byte arrives. *)

type t

val create :
  loop:Loop.t ->
  id:Net.Node_id.t ->
  ?obs:Obs.Registry.t ->
  ?max_frame:int ->
  ?outbuf_hwm:int ->
  ?pool:Pool.t ->
  on_msg:(src:Net.Node_id.t -> Core.Msg.t -> unit) ->
  unit ->
  t
(** [outbuf_hwm] is the per-peer queued-bytes bound (default 4 MiB).
    [pool] supplies the scratch, gather and partial-frame buffers
    (default: a private pool; pass one explicitly to share across nodes
    or to enable debug poisoning). [?obs] registers a scrape-time collect
    hook that mirrors this node's {!stats}, drop/fault counters,
    live-connection count, write-coalescing ratio and the frame bytes
    queued to all peers ([leopard_transport_queued_bytes]) as
    [leopard_transport_*] metrics labeled
    [node="<id>"] — the send/receive hot paths are untouched. Drops are
    split by cause ([leopard_transport_dropped_total{reason=...}] with
    [backpressure]/[no_addr]/[disconnected]) and backpressure drops
    additionally by frame kind
    ([leopard_transport_dropped_kind_total{kind=...}]). *)

val default_outbuf_hwm : int

val listen : t -> ?port:int -> unit -> int
(** Binds a loopback listener (port [0] = ephemeral) and returns the
    actual port. Call once, before peers dial. *)

val set_peer_addr : t -> Net.Node_id.t -> Unix.sockaddr -> unit
(** Where to dial peer [dst]. Sends to a peer with no known address are
    dropped (and counted). *)

val send : t -> dst:Net.Node_id.t -> Core.Msg.t -> unit
(** Frames and queues the message; dials first if no connection is up.
    [dst = id] loops back through the event loop (next round), matching
    the simulator's self-delivery. Silently inert while down. *)

val multicast : t -> n:int -> Core.Msg.t -> unit
(** Sends [msg] to every peer in [0, n) except this node, encoding the
    frame {e exactly once}: all [n - 1] queues reference the same
    immutable frame string. Per-destination fault verdicts are applied
    as in {!send} (delayed and duplicated copies reuse the shared
    frame). Silently inert while down. *)

(** {2 Fault surface}

    {!set_down} models a crashed host; the verdict filter below models a
    faulty {e link}: installed by the chaos harness, it is consulted for
    every outbound message before framing (self-sends excluded) and can
    drop the message, hold it back for a span, or send it twice. Dropped,
    delayed and duplicated messages are counted in the
    [leopard_transport_faulted_total] metric (separately from
    {!dropped}, which counts capacity losses). *)

val set_fault :
  t -> (dst:Net.Node_id.t -> Core.Msg.t -> Net.Network.fault_verdict) option -> unit
(** Installs (or with [None] removes) the outbound fault filter. *)

val set_down : t -> bool -> unit
(** See above. Listener stays bound while down (the port remains
    reserved); newly accepted connections are closed immediately, which
    peers observe as a dead host. *)

val is_down : t -> bool

val dropped : t -> int
(** Frames dropped so far, all causes: the sum of the three split
    counters below. *)

val dropped_backpressure : t -> int
(** Frames refused because the peer's queue was over its admission
    limit (the HWM for bulk frames, the consensus headroom above it for
    consensus-critical frames). *)

val dropped_no_addr : t -> int
(** Frames refused because no address is known for the peer. *)

val dropped_disconnected : t -> int
(** Frames lost to a dead window: queued toward a peer and discarded by
    {!set_down}, or cut mid-write by a broken connection. Split from
    backpressure so crash/reconnect churn never reads as overload. *)

val dropped_by_kind : t -> Core.Msg.kind -> int
(** Backpressure drops by frame kind — the kind-aware policy's audit
    trail. Under pure overload, consensus-critical kinds stay at zero
    while [K_datablock]/[K_fetch_reply] absorb the loss. *)

val pressure : t -> float
(** Egress queue pressure: the fullest peer queue's bytes relative to
    the HWM. [0.] = idle; [>= 1.] = at or beyond the bulk-frame drop
    threshold. [Cluster]'s client reads it to throttle its offered
    load. *)

val live_connections : t -> int
(** Established connections, both directions (diagnostics / tests). *)

(** {2 Instrumentation} *)

type stats = {
  mutable write_syscalls : int;
  mutable read_syscalls : int;
  mutable frames_sent : int;  (** frames fully handed to the kernel *)
  mutable frames_recvd : int; (** frames parsed, hellos included *)
  mutable bytes_sent : int;
  mutable bytes_recvd : int;
  mutable reconnects : int;   (** backoff redials scheduled *)
}

val stats : t -> stats
(** Live counters (mutated in place as the node runs). [write_syscalls]
    vs [frames_sent] is the coalescing ratio the net benchmark gates. *)

val pool : t -> Pool.t
(** The buffer pool behind this node's scratch, gather and partial-frame
    buffers. *)

val set_max_write : t -> int -> unit
(** Debug clamp: offer at most [n] bytes per [write(2)] ([n <= 0]
    restores unlimited). Forces partial-write paths — the torture tests
    drive a multicast through a 1-byte clamp to prove shared frames
    survive arbitrarily sliced writes. *)

val close : t -> unit
(** Tears everything down, listener included. The [t] is dead after. *)

(** The broadcast laboratory: §2's data-delivery alternatives, simulated.

    One source must deliver a payload to all replicas over the NIC-level
    network model. The paper compares three techniques against its
    datablock decoupling:

    - {b Direct}: the source unicasts the full payload to everyone
      (HotStuff's proposal dissemination — the leader bottleneck).
    - {b Tree}: a fanout-ary relay tree; cheap per node but a Byzantine
      inner node silently severs its whole subtree.
    - {b Erasure}: the source sends one Reed–Solomon fragment to each
      replica; replicas rebroadcast their fragment; everyone
      reconstructs from any [k] — fault tolerant, but every node ships
      ~n/k times the payload and pays coding CPU.

    The lab runs each technique for real (the erasure path encodes and
    decodes actual bytes) and reports delivery coverage, completion time
    and the egress profile — the measured counterpart of
    {!Analysis.Delivery_models}. *)

type strategy =
  | Direct
  | Tree of { fanout : int }
  | Erasure of { k : int }

type result = {
  honest : int;               (** honest replicas, source included *)
  delivered : int;            (** honest replicas that hold the payload *)
  completion : Sim.Sim_time.span option;
      (** instant the last honest delivery happened; [None] if some
          honest replica never received the payload *)
  source_egress : int;        (** bytes sent by the source *)
  max_replica_egress : int;   (** heaviest non-source egress *)
  total_bytes : int;          (** all bytes put on the wire *)
  decode_failures : int;      (** erasure reconstructions that failed *)
}

val run :
  ?seed:int64 ->
  ?link:Net.Network.link ->
  n:int ->
  payload:string ->
  byzantine:Net.Node_id.t list ->
  strategy ->
  result
(** [run ~n ~payload ~byzantine strategy] simulates one broadcast from
    replica 0 (always honest). Byzantine replicas receive but never
    forward. Requires [n >= 2], non-empty payload, and for
    [Erasure { k }]: [1 <= k <= n - 1]. *)

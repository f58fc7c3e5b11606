(** Leopard protocol configuration.

    Gathers the paper's parameters: the datablock size α (requests per
    datablock — at a fixed payload this is proportional to the paper's
    "bits per package"), the BFTblock size (datablock links per consensus
    proposal), the parallel-instance window [k] with its checkpoint
    period, the timers, and the crypto cost profile. *)

type t = {
  n : int;                (** number of replicas, [n = 3f + 1] *)
  f : int;                (** Byzantine replicas tolerated *)
  alpha : int;            (** datablock size: requests per datablock *)
  bft_size : int;         (** BFTsize: datablock links per BFTblock *)
  k : int;                (** watermark window: serials [lw < sn <= lw + k] *)
  checkpoint_interval : int;  (** checkpoint every this many executed serials *)
  payload : int;          (** request payload bytes (sizing only) *)
  s : int;                (** client submission fan-out (μ's [s], §4.3) *)
  datablock_timeout : Sim.Sim_time.span;
      (** pack a partial datablock once the oldest pending request is
          this old, counted from its client's birth instant, at most
          once per this delay (0 disables partial packing) *)
  proposal_timeout : Sim.Sim_time.span;
      (** leader's short-timer (§6.2.1): propose with fewer than BFTsize
          pending datablocks at most once per this delay; datablocks
          that arrive while it is closed leave when it reopens (0
          disables). With
          [datablock_timeout] also positive it is the cycle of the
          proposal clock: a non-leader that votes for a fresh partial
          proposal packs once more, timed to land a guard
          ([proposal_timeout / 8]) before the leader's next short-timer
          proposal (see {!Replica}) *)
  view_timeout : Sim.Sim_time.span;   (** progress timer for view changes *)
  fetch_grace : Sim.Sim_time.span;
      (** how long a replica waits for a proposal's missing datablocks to
          arrive by normal dissemination before fetching them from the
          leader — must exceed the multicast serialization spread of a
          datablock across n-1 receivers, or followers flood the leader
          with fetches for data that is already in flight *)
  cost : Crypto.Cost_model.t;
  cores : int;            (** CPU cores per replica (c5.xlarge: 4) *)
  priority_channels : bool;
      (** §6.1's two-channel design: consensus messages (channel ①)
          overtake queued datablocks (channel ②). Disable for the
          ablation bench. *)
  leader_generates_datablocks : bool;
      (** ablation: the paper *excludes* the leader from datablock
          generation to keep its NIC free; enabling this reverts that *)
  punish_equivocators : bool;
      (** §4.3 remark: two different datablocks under one counter are
          publicly verifiable evidence; with this on, replicas "kick
          out" the equivocator — all its future datablocks are ignored *)
  mempool_cap : int;
      (** admission bound on pending mempool requests; submissions past
          it are rejected with an explicit verdict (0 = unbounded, the
          seed behaviour) *)
}

val make :
  n:int ->
  ?alpha:int ->
  ?bft_size:int ->
  ?k:int ->
  ?checkpoint_interval:int ->
  ?payload:int ->
  ?s:int ->
  ?datablock_timeout:Sim.Sim_time.span ->
  ?proposal_timeout:Sim.Sim_time.span ->
  ?view_timeout:Sim.Sim_time.span ->
  ?fetch_grace:Sim.Sim_time.span ->
  ?cost:Crypto.Cost_model.t ->
  ?cores:int ->
  ?priority_channels:bool ->
  ?leader_generates_datablocks:bool ->
  ?punish_equivocators:bool ->
  ?mempool_cap:int ->
  unit ->
  t
(** Defaults: batch sizes from {!paper_batch_sizes}, [k = 32], checkpoint
    every [k/2], 128-byte payload, [s = 1], partial-pack and short-timer
    disabled (pure Algorithm 1: datablocks carry exactly ≥ α requests),
    4 s view timeout, paper cost model, 4 cores. The overload control
    [mempool_cap] defaults to off, preserving the unbounded open-loop
    seed behaviour.
    Requires [n >= 4]. Raises [Invalid_argument] otherwise. *)

val paper_batch_sizes : n:int -> int * int
(** [(alpha, bft_size)] from the paper's Table 2, interpolated for
    intermediate [n]: (2000, 100) up to 64 replicas, (3000, 300) at 128,
    (4000, 300) at 256, (4000, 400) from 400. *)

val quorum : t -> int
(** [2f + 1], the vote quorum and threshold-signature reconstruction
    size. *)

val max_faulty : t -> int
(** [f]. *)

val leader_of_view : t -> int -> Net.Node_id.t
(** Round-robin leader rotation: view [v] is led by [v mod n] (§4.3). *)

val requests_per_bftblock : t -> int
(** α × BFTsize, the paper's per-proposal request count (§6.2.1). *)

val pp : Format.formatter -> t -> unit

(** The memory pool (Fig. 4): pending request batches at one replica.

    Non-leader replicas continually drain their mempool into datablocks
    (Algorithm 1, run by {!Packer}). Packed batches are removed to avoid repetition (line
    12); batches confirmed elsewhere (possible when the client fan-out
    [s > 1]) are skipped lazily.

    The pool can be bounded: with a capacity, {!try_add} renders an
    explicit admission verdict instead of growing without limit. The
    bound defaults to off, in which case the pool behaves exactly like
    the original unbounded queue. *)

type reject_reason =
  | Mempool_full  (** the admission bound would be exceeded *)
  | Inactive      (** the replica is crashed or silent *)

type admission = Admitted | Rejected of reject_reason
(** Verdict rendered to the submitting client. *)

type t

val create : ?cap:int -> unit -> t
(** [cap] bounds the pending request count admitted through {!try_add}
    (0, the default, disables the bound). *)

val cap : t -> int
(** The admission bound this pool was created with (0 = unbounded). *)

val add : t -> Workload.Request.t -> unit
(** Unconditional enqueue, bypassing the cap: the client submit of the
    HotStuff and PBFT baselines, whose leaders run an unbounded pool and
    never refuse a request. *)

val try_add : t -> Workload.Request.t -> admission
(** Admission-checked enqueue: [Rejected Mempool_full] when a capacity
    is set and admitting the batch would push the pending count past
    it; otherwise enqueues and returns [Admitted]. *)

val pending_requests : t -> int
(** Requests currently poolable (confirmed batches may still be counted
    until a take skips them). *)

val take : t -> target:int -> Workload.Request.t list
(** [take t ~target] removes and returns whole batches totalling at least
    [target] requests when available, fewer (possibly none) otherwise —
    FIFO order, skipping already-confirmed batches. The result may
    overshoot [target] by at most the last batch's size. A non-positive
    [target] takes nothing. *)

val has_at_least : t -> int -> bool
(** Whether a [take ~target] would reach its target. *)

val oldest_age : t -> now:Sim.Sim_time.t -> Sim.Sim_time.span option
(** Age of the oldest pending batch; drives the partial-pack timeout. *)

(** Bounded domain worker pool for CPU-bound verification work.

    A fixed set of OCaml 5 domains pulls tasks from one shared queue
    (crypto verification tasks are uniform, so a shared queue beats
    per-worker deques with stealing — there is nothing to steal; see
    DESIGN.md §11). A completion is a callback given to {!async} and
    delivered {e only} by {!drain}, which the owner thread calls (the
    TCP runtime drains from a {!Transport.Loop} tick hook and a readable
    {!notify_fd}). Worker domains never run owner-side code, so replica
    state needs no locks. The simulator does not use a pool: it verifies
    inline and charges modelled CPU costs instead.

    Backpressure: at most [budget] tasks may be in flight; past that a
    submission runs the task on the caller instead of queueing it
    (counted in {!stats} as [inline_runs]). The owner can therefore
    never race unboundedly ahead of its workers, and memory stays
    bounded under overload. *)

type t

type stats = {
  tasks : int;        (** tasks ever submitted, inline fallbacks included *)
  inline_runs : int;  (** tasks run on the caller: in-flight budget was full *)
  idle_waits : int;   (** worker waits on the empty queue (idle transitions) *)
  drained : int;      (** completions delivered by {!drain} so far *)
  busy_ns : int;
      (** cumulative wall time workers spent inside tasks. Overlap
          against the owner's wall clock: [busy_ns / wall_ns] > 1 means
          verification genuinely ran in parallel with the event loop. *)
}

val create : ?obs:Obs.Registry.t -> ?domains:int -> ?budget:int -> unit -> t
(** [create ()] spawns [domains] worker domains (default
    [max 1 (recommended_domain_count () - 1)]: leave one core to the
    owner) with an in-flight budget of [budget] tasks (default
    [64 * domains]). Requires [domains >= 1] and [budget >= 1].

    With [?obs], workers record per-task wall time into a
    [leopard_verify_task_latency_ns] histogram, and a collect hook
    exposes queue depth, in-flight count and the {!stats} counters as
    [leopard_verify_*] metrics — the task hot path itself is untouched
    apart from one histogram record per task. *)

val size : t -> int
(** Number of worker domains. *)

val async : t -> (unit -> 'a) -> ('a -> unit) -> unit
(** [async t f k] runs [f] on a worker and delivers [k result] at a
    later {!drain} on the owner thread — never synchronously, so caller
    state cannot be reentered. If [f] raises, the exception is
    re-raised out of that [drain] call. *)

val drain : t -> int
(** Runs every completion callback whose task has finished and whose
    wakeup has been signalled, on the calling thread, and returns how
    many were delivered. The owner must call this regularly (tick hook)
    and/or when {!notify_fd} becomes readable; a completion signalled
    after a drain began is delivered by the next one, and the fd is
    readable until then. Never blocks. With nothing signalled it is one
    atomic read: no syscall, no allocation.

    [Core.Verify.pooled] sends only jobs above its cost cut here; cheap
    checks cost less than the round trip and run on the owner. *)

val notify_fd : t -> Unix.file_descr
(** Read end of a self-pipe: becomes readable when the completion queue
    transitions empty→non-empty, so a poll-based owner wakes
    immediately instead of sleeping out its timeout. {!drain} clears
    it. Do not close it; {!shutdown} does. *)

val stats : t -> stats

val shutdown : t -> unit
(** Finishes all queued work, joins the worker domains and closes the
    pipe. Completions not yet drained are discarded. Idempotent. *)

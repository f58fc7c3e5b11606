(** Verification dispatch: the seam that lets the datablock check run
    off the event loop.

    A {!job} is the replica's one check that can be worth shipping to a
    worker: a datablock's Merkle recompute and creator signature
    (Algorithm 1, lines 17–18). Threshold shares and proofs cost two
    compressions, far below {!inline_below}, so the replica checks
    them by direct calls where they arrive. A {!dispatch} evaluates a
    job and hands the boolean verdict to a continuation. Each plane has
    one dispatcher:

    - {!inline} runs the job synchronously and calls the continuation on
      the spot. The sim plane always uses it: modelled costs are charged
      by {!Platform.t}[.submit], so where the crypto really runs could
      not change a report byte.
    - {!pooled}, the TCP plane's, runs a cheap job inline, like
      {!inline}, and ships any other to an {!Exec.Pool} and returns at
      once; its continuation then runs later, on the owner thread, when
      {!Exec.Pool.drain} is called (the TCP runtime drains from a loop
      tick + the pool's notify fd). Continuations must therefore
      re-check any replica state they captured — the world may have
      moved on while the crypto ran — and must also be safe to run
      synchronously.

    Both deliver the same verdicts: a job is a pure function of
    immutable values, and the memo fields it warms are domain-safe (see
    {!Datablock.t}). *)

type job = Datablock_check of { pks : Crypto.Signature.public_key array; db : Datablock.t }

type dispatch = job -> (bool -> unit) -> unit

val run : job -> bool
(** Synchronous evaluation. *)

val inline : dispatch
(** [inline job k] is [k (run job)]. *)

val cost : job -> int
(** The job's estimated cost in SHA-256 compressions: [3 * batches]
    (leaf hashes, Merkle inner nodes, HMAC). *)

val inline_below : int
(** The cut of {!pooled}: jobs whose {!cost} is below it run inline.
    It is one pool round trip expressed in compressions, from the
    [verify/handoff] and [datablock/verify-7] rows of BENCH_micro. *)

val pooled : Exec.Pool.t -> dispatch
(** Cost-aware: a job whose {!cost} is below {!inline_below} runs on the
    caller and its continuation is called synchronously, as {!inline}
    does. Any other job runs on a pool worker ({!Exec.Pool.async}) and
    its continuation at a later {!Exec.Pool.drain} on the owner thread,
    never synchronously. *)

(** Verification dispatch: the seam that lets hot crypto checks run off
    the event loop.

    A {!job} names one of the three CPU-heavy checks a replica performs
    on received messages (datablock Merkle+signature, threshold
    aggregate, threshold share), or a batch of them. A {!dispatch}
    evaluates a job and hands the boolean verdict to a continuation.
    Each plane has one dispatcher:

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

    Both deliver the same verdicts: jobs are pure functions of immutable
    values, and the memo fields they warm are domain-safe (see
    {!Datablock.t}, [Threshold]). A batch ({!All}) never short-circuits
    — every sub-job is evaluated so its memo is warm for later inline
    re-checks. *)

type job =
  | Datablock_check of {
      pks : Crypto.Signature.public_key array;
      db : Datablock.t;
    }
  | Aggregate_check of {
      setup : Crypto.Threshold.setup;
      agg : Crypto.Threshold.aggregate;
      msg : string;
    }
  | Share_check of {
      setup : Crypto.Threshold.setup;
      share : Crypto.Threshold.share;
      msg : string;
    }
  | All of job list  (** conjunction; [All []] is vacuously true *)

type dispatch = job -> (bool -> unit) -> unit

val run : job -> bool
(** Synchronous evaluation. [All] evaluates {e every} sub-job (no
    short-circuit) and returns their conjunction. *)

val inline : dispatch
(** [inline job k] is [k (run job)]. *)

val cost : job -> int
(** The job's estimated cost in SHA-256 compressions: [3 * batches]
    for a datablock check (leaf hashes, Merkle inner nodes, HMAC), 2 for
    a share or aggregate check, the sum for [All]. *)

val inline_below : int
(** The cut of {!pooled}: jobs whose {!cost} is below it run inline.
    It is one pool round trip expressed in compressions, from the
    [verify/handoff] and [datablock/verify-7] rows of BENCH_micro. *)

val pooled : Exec.Pool.t -> dispatch
(** Cost-aware: a job whose {!cost} is below {!inline_below} runs on the
    caller and its continuation is called synchronously, as {!inline}
    does (so [All []] completes at once). Any other job runs on the
    pool's workers and its continuation at a later {!Exec.Pool.drain} on
    the owner thread, never synchronously. *)

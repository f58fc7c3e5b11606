(** Single-threaded event loop with a timer wheel.

    The socket runtime's engine: file-descriptor readiness callbacks
    plus monotonic timers, dispatched from one thread — replica code
    runs exactly as it does on {!Sim.Engine}, never concurrently with
    itself. The timer API mirrors the engine's schedule/cancel shape
    (same FIFO tie-break for equal instants, via the shared
    {!Sim.Heap}), which is what lets {!Core.Platform} abstract over
    both.

    The clock is nanoseconds since {!create}, as a {!Sim.Sim_time.t}.
    It is derived from the wall clock but clamped to never move
    backwards, so timer order is stable under NTP steps ([Unix] exposes
    no raw monotonic clock; the clamp gives local monotonicity, which
    is all the timer wheel needs).

    Readiness comes from epoll(7) on Linux and from select(2)
    elsewhere, picked at build time. Under epoll a round costs the same
    whatever the number of watched fds, and fd numbers above
    [FD_SETSIZE] (1024) work; the epoll fd is opened at the first watch
    and closed when the last fd is unwatched, so a loop with nothing
    watched holds no fd. Waits have nanosecond resolution (millisecond,
    rounded up, on kernels without [epoll_pwait2]). *)

type t

type handle
(** A scheduled timer, usable for cancellation. *)

val create : unit -> t
(** A fresh loop with clock at {!Sim.Sim_time.zero}. Also sets SIGPIPE
    to ignore (process-wide): a peer closing mid-write must surface as
    [EPIPE] on that write, not kill the process. *)

val create_select : unit -> t
(** As {!create}, but on the portable select(2) poller whatever the
    platform, which caps fd numbers at 1024 and costs every watched fd
    on every round. Tests use it to hold both pollers to one
    behaviour. *)

val uses_epoll : t -> bool

val now : t -> Sim.Sim_time.t
(** Current loop time (updated at each dispatch round, and on demand by
    this call). *)

val now_ns : t -> int

val schedule : t -> delay:Sim.Sim_time.span -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] once [delay] has elapsed (negative
    delays clamp to zero). Timers due at the same instant fire in
    schedule order.

    A zero-delay timer set during fd dispatch runs in the same round:
    after every fd that was ready in that round has been dispatched, and
    before the loop can block again. So work a round's callbacks defer
    this way sees everything that round read ([Core.Replica] batches a
    round's datablocks into one proposal on this). *)

val schedule_at : t -> at:Sim.Sim_time.t -> (unit -> unit) -> handle

val cancel : t -> handle -> unit
(** Cancels a pending timer; cancelling twice or after firing is a
    no-op. *)

val pending_timers : t -> int

(** {2 File descriptors}

    Callbacks are level-triggered: a readable [fd] fires its callback
    every dispatch round until drained. A callback that unwatches an fd
    which was also ready in the same round stops that fd's dispatch.
    Always {!unwatch} an [fd] before closing it: under select(2) a
    closed fd left in the watch set fails the whole wait, and under
    epoll the kernel drops it silently while the loop still counts it
    (keeping the epoll fd open), and a duplicate of it keeps firing. *)

val watch_read : t -> Unix.file_descr -> (unit -> unit) -> unit
val watch_write : t -> Unix.file_descr -> (unit -> unit) -> unit
(** At most one callback per direction per fd (replaced on re-watch). *)

val unwatch_write : t -> Unix.file_descr -> unit
val unwatch : t -> Unix.file_descr -> unit
(** Removes both directions. *)

type tick_handle
(** A registered tick hook, usable for deregistration. *)

val on_tick : t -> (unit -> unit) -> tick_handle
(** Registers a hook run after every batch of work — after due timers
    fire and after fd callbacks dispatch — and always before the loop
    can block waiting for fds. {!Conn} uses this to flush write queues once
    per batch, so the many small frames one round produces coalesce into
    one [write(2)] per peer instead of one each. *)

val remove_tick : t -> tick_handle -> unit
(** Deregisters a tick hook so the loop no longer runs (or retains) it;
    removing twice is a no-op. A removal made from inside a tick hook
    takes effect at the next round. *)

(** {2 Driving} *)

val run_while : t -> (unit -> bool) -> unit
(** Dispatches timers and fd events while the predicate holds (checked
    once per round) and {!stop} has not been called. Rounds block
    waiting for fds for at most the gap to the next timer (capped at 50 ms, so
    the predicate stays responsive). *)

val run_for : t -> span:Sim.Sim_time.span -> unit
(** [run_while] until [span] of loop time has elapsed. *)

val stop : t -> unit
(** Makes the current [run_while] return after the round in progress. *)

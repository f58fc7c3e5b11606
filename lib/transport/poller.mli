(** Readiness polling for {!Loop}: the one place that knows whether the
    kernel is asked through epoll(7) or select(2).

    {!create} picks by platform at build time — epoll on Linux, select
    elsewhere — so a round costs O(ready fds) where it can, not
    O(watched fds), and fd numbers are not capped at [FD_SETSIZE].
    {!create_select} forces the portable poller, so tests can hold both
    to one behaviour. Both are level-triggered.

    Interest and readiness are bit sets of {!read} and {!write}. The
    caller tracks what each fd is registered for: {!add} a fd not yet
    registered, {!modify} one that is, {!remove} it before closing it. *)

type t

val read : int
val write : int

val create : unit -> t
val create_select : unit -> t

val is_epoll : t -> bool

val add : t -> Unix.file_descr -> int -> unit
(** The epoll poller opens its epoll fd at the first [add]. *)

val modify : t -> Unix.file_descr -> int -> unit

val remove : t -> Unix.file_descr -> unit
(** The epoll poller closes its epoll fd when the last registered fd is
    removed, so a poller whose fds are all removed holds none. *)

val wait : t -> timeout_ns:int -> int
(** Blocks until some registered fd is ready or [timeout_ns] has passed
    (an interrupted wait reports nothing), and returns the number of
    ready entries, read back with {!ready_fd} and {!ready_events} until
    the next [wait]. A hang-up or error reads as readable; an error, and
    under epoll also a hang-up, reads as writable. *)

val ready_fd : t -> int -> Unix.file_descr
val ready_events : t -> int -> int

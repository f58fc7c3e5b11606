(** The view-change watchdog's request set: the paper's trigger
    condition (1), §4.3 — a re-sent request still unconfirmed a full
    view timeout after the replica first saw it.

    Requests are kept in arrival order, so their observation instants
    never decrease and only the oldest unconfirmed one sets the
    deadline: {!next_due} pops the confirmed requests at the head and
    looks at the first one left. Its cost is the number of requests
    confirmed since the last call, not the number watched. *)

type t

val create : unit -> t

val watch : t -> now:Sim.Sim_time.t -> Workload.Request.t -> unit
(** Starts observing an unconfirmed request at [now]. A request already
    watched (by id) keeps its first instant; a confirmed one is
    ignored. *)

val next_due :
  t -> timeout:Sim.Sim_time.span -> grace_end:Sim.Sim_time.t -> Sim.Sim_time.t option
(** When the trigger fires if nothing changes: the oldest unconfirmed
    request's instant plus [timeout], not before [grace_end] (the view
    must be old enough and a timeout without execution progress);
    [None] if none is watched. Drops the confirmed requests it passes. *)

val length : t -> int
(** Requests held, including confirmed ones not yet dropped. *)

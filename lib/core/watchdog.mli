(** The view-change watchdog's request set: the paper's trigger
    condition (1), §4.3 — a re-sent request still unconfirmed a full
    view timeout after the replica first saw it.

    Requests are kept in arrival order, so their observation instants
    never decrease and only the oldest unconfirmed one can decide a
    check: a check pops the confirmed requests at the head and looks at
    the first one left. Its cost is the number of requests confirmed
    since the last check, not the number watched. *)

type t

val create : unit -> t

val watch : t -> now:Sim.Sim_time.t -> Workload.Request.t -> unit
(** Starts observing an unconfirmed request at [now]. A request already
    watched (by id) keeps its first instant; a confirmed one is
    ignored. *)

val expired :
  t -> now:Sim.Sim_time.t -> timeout:Sim.Sim_time.span -> grace_end:Sim.Sim_time.t -> bool
(** Whether some watched request is unconfirmed and has been watched for
    at least [timeout], with [now] also at or past [grace_end] (the
    replica's view must be old enough and without execution progress
    for a full timeout). Drops the confirmed requests it passes. *)

val length : t -> int
(** Requests held, including confirmed ones not yet dropped. *)

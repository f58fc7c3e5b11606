(** A one-shot deadline slot: the state changes that create a deadline
    arm it, and no timer polls. A slot holds one live instant, moved
    only earlier, so its owner holds O(1) timers whatever its load. *)

type t

val create : (at:Sim_time.t -> (unit -> unit) -> unit) -> t
(** An empty slot over a [schedule_at] that never cancels: the engine's,
    or a replica platform's. *)

val arm : t -> at:Sim_time.t -> (unit -> unit) -> unit
(** Schedules [f] at [at], unless the slot holds an instant no later.
    A firing whose instant the slot no longer holds does nothing; a live
    one empties the slot first, so [f] may re-arm it. *)

val disarm : t -> unit
(** Empties the slot: its pending firing does nothing. *)

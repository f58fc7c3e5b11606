(** Structured simulation trace.

    A bounded in-memory log of tagged events; protocol implementations
    record state transitions here so tests can assert on behaviour and
    debugging runs can be replayed. Disabled traces cost one branch.

    A trace is single-owner: one event loop (simulated or socket)
    records into it and reads it back between events. Nothing here is
    safe for concurrent use, and {!recordf} deliberately avoids global
    formatter state so two traces never interleave through a shared
    sink. *)

type t

type entry = { at : Sim_time.t; tag : string; detail : string }

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** [create ~capacity ~enabled ()] is a trace keeping at most [capacity]
    entries (default 65536; oldest entries are dropped first). *)

val enabled : t -> bool

val record : t -> at:Sim_time.t -> tag:string -> string -> unit
(** [record t ~at ~tag detail] appends an entry when the trace is enabled. *)

val recordf :
  t -> at:Sim_time.t -> tag:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Like {!record} with a format string; the detail string is only built
    when the trace is enabled. *)

val entries : t -> entry list
(** All retained entries, oldest first. *)

val find : t -> tag:string -> entry list
(** Retained entries with the given tag, oldest first. *)

val count : t -> tag:string -> int
(** Number of retained entries with the given tag. *)

val length : t -> int

val clear : t -> unit

val pp_entry : Format.formatter -> entry -> unit

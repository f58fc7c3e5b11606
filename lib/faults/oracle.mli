(** Post-run invariant checking for chaos scenarios.

    Two invariants are asserted after every run, on every plane:

    - {b safety}: no conflicting commits at any serial — the honest
      replicas' executed ledgers agree position-wise wherever they
      overlap (Theorem 5.3);
    - {b liveness}: commit progress resumes within the scenario's
      settle bound after the last fault event — the confirmed-request
      count measured at the end strictly exceeds the count at
      {!Scenario.last_event_at}.

    Scenario expectations add one-sided checks on top: a required view
    change, required equivocation evidence, a lagging replica required
    to state-sync back to the honest frontier. *)

type check = { label : string; ok : bool; detail : string }

type verdict = check list

val ok : verdict -> bool

(** Everything a plane measured about one run; the oracle's verdict plus
    the raw numbers and the rendered trace (byte-identical across
    same-seed sim runs). *)
type outcome = {
  scenario : Scenario.t;
  plane : string;  (** ["sim"] or ["tcp"] *)
  seed : int64;
  verdict : verdict;
  confirmed_at_heal : int;  (** confirmed when the last event fired *)
  confirmed : int;          (** confirmed at the end of the run *)
  final_view : int;
  view_changes : int;
  equivocations : int;
  pack_age_max : Sim.Sim_time.span;
      (** {!Core.Driver.pack_age_max}: the oldest request an honest
          replica packed *)
  wall_sec : float;
  trace : string;
}

val outcome_ok : outcome -> bool

val expectations : scenario:Scenario.t -> Core.Driver.t -> verdict
(** The checks the scenario declares (view change, equivocation
    evidence or its absence, a replica back at the honest execution
    frontier), read off the driver as the run stands. *)

val judge :
  scenario:Scenario.t ->
  plane:string ->
  seed:int64 ->
  confirmed_at_heal:int ->
  wall_sec:float ->
  trace:Sim.Trace.t ->
  Core.Driver.t ->
  outcome
(** Reads the run's numbers off the plane's driver and builds the
    outcome: the two standing invariants ({!Core.Driver.ledgers_agree},
    confirmed growth since the heal) plus whichever expectations the
    scenario declares, with {!Core.Driver.synced} as the state-sync
    test. *)

val render_trace : Sim.Trace.t -> string
(** One {!Sim.Trace.pp_entry} line per entry; the byte-identical-replay
    artifact for sim runs. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_outcome : Format.formatter -> outcome -> unit
(** One line: [PASS sim leader-crash n=4 ...] plus failing checks. *)

val pp_outcomes : Format.formatter -> outcome list -> unit
(** The corpus summary table. *)

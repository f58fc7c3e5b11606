(** Run a scenario on the discrete-event simulator.

    The run is fully deterministic: the workload, the network, the
    replicas and the injector all derive from the one seed, and the
    returned {!Oracle.outcome.trace} is a rendering of the shared
    protocol trace (with [chaos] entries interleaved at their fire
    instants) — re-running the same [(seed, scenario)] yields a
    byte-identical string. *)

val config : Scenario.t -> Core.Config.t
(** The protocol configuration {!run} builds the cluster with: α = 10,
    BFTsize 2, 200 ms datablock and 300 ms proposal timeouts, the
    scenario's tweaks applied. *)

val run : ?seed:int64 -> ?load:float -> Scenario.t -> Oracle.outcome
(** Builds a [Core.Runner] cluster sized by the scenario, installs the
    injector as the network's fault hook, schedules the scenario's
    events on the engine, drives the simulation for
    [Scenario.duration] and evaluates the oracle. Client re-sends are
    always on (1 s) — they arm the view-change watchdog. [load]
    defaults to the scenario's [load] override when present, otherwise
    by scale: 400 req/s at n < 16, 800 below 64, 1200 from 64. *)

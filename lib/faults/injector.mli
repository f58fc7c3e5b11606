(** The plane-agnostic fault-injection engine.

    Compiles a scenario's link-fault actions ([Partition]/[Heal]/
    [Drop]/[Delay]/[Duplicate]) into active state, and renders a
    {!Net.Network.fault_verdict} for every message crossing a wire. Both planes drive
    the same injector — the simulator from {!Net.Network.set_fault_hook}
    (per wire crossing, post-egress) and the TCP cluster from per-node
    {!Transport.Conn.set_fault} filters (pre-framing) — so one scenario
    means the same faults everywhere.

    Probabilistic rules draw from the RNG given at creation; seeding it
    from the run's root seed makes every decision sequence replayable. *)

type t

val create : n:int -> rng:Sim.Rng.t -> t

val apply : t -> Scenario.action -> bool
(** Installs a link-fault action; returns [false] for [Crash]/[Revive],
    which are process faults the plane must apply itself. [Partition]
    replaces any active partition; [Drop]/[Delay]/[Duplicate] append a
    rule (first match wins); [Heal] clears partition and rules. *)

val decide :
  t -> src:Net.Node_id.t -> dst:Net.Node_id.t -> Core.Msg.t -> Net.Network.fault_verdict
(** The verdict for one message: [Drop] if an active partition separates
    [src] from [dst], otherwise the effect of the first matching rule
    (subject to its probability), otherwise [Pass]. *)

val active_rules : t -> int
val partitioned : t -> bool

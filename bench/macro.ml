(* Macro-benchmark: wall-clock cost of *simulating* the full Leopard
   protocol as n grows, with a JSON baseline and per-n regression gates.

   Where [Micro] measures the byte-level primitives (SHA-256, codec,
   vote payloads), this measures the event-level substrate: how much
   host time and allocation one simulated second costs at n replicas.
   The paper's headline runs go to n = 600 (Fig. 8/9, Table 3); those
   reproductions are only tractable if the per-event and per-message
   simulator overheads stay flat in n, which is what this bench gates.

     dune exec bench/main.exe -- --only macro
     dune exec bench/main.exe -- --only macro --fast
     dune exec bench/main.exe -- --only macro --check-regressions

   Each row runs the complete protocol (datablock dissemination, two
   vote rounds, checkpoints) for a fixed simulated window and reports

     - wall-clock seconds, and simulated-seconds per wall-second,
     - events fired and events per wall-second,
     - GC minor words per event and per delivered protocol message
       (the multicast fan-out cost the shared-packet path optimizes).

   The run writes [BENCH_sim.json]; with [--check-regressions] it
   compares against the checked-in baseline instead and exits nonzero
   when any n got more than 2x slower (wall-clock) or more than 2x more
   allocation-hungry (minor words/event, minor words/message). *)

type row = {
  n : int;
  sim_s : float;            (* simulated window *)
  wall_s : float;
  events : int;
  events_per_s : float;
  minor_words_per_event : float;
  delivered_msgs : int;
  minor_words_per_msg : float;
  confirmed : int;          (* requests confirmed: a cheap cross-rewrite
                               determinism fingerprint, not a perf metric *)
}

(* ------------------------------------------------------------------ *)
(* One measured run                                                     *)
(* ------------------------------------------------------------------ *)

(* A fixed offered load across n: the protocol work per simulated second
   is then load-bound, so the measured growth in events and words is the
   fan-out cost of scale, not a larger workload. Batch sizes are pinned
   small for the same reason — with the paper's adaptive alpha, large n
   would spend the whole short window filling its first datablock and the
   bench would measure an idle simulator. *)
let macro_load = 5e4

let durations ~fast n =
  let sim = if n <= 64 then 10 else if n <= 128 then 8 else 6 in
  if fast then max 3 (sim / 2) else sim

let run_one ~fast n =
  let sim_seconds = durations ~fast n in
  let cfg = Core.Config.make ~n ~alpha:250 ~bft_size:50 () in
  let duration = Sim.Sim_time.s sim_seconds in
  let sp =
    Core.Runner.spec ~cfg ~load:macro_load ~duration
      ~warmup:(Sim.Sim_time.s 1) ()
  in
  let t = Core.Runner.create sp in
  Gc.full_major ();
  let minor0 = Gc.minor_words () in
  let wall0 = Unix.gettimeofday () in
  Core.Runner.run_until t duration;
  let wall_s = Unix.gettimeofday () -. wall0 in
  let minor = Gc.minor_words () -. minor0 in
  let r = Core.Runner.report t in
  let events = Sim.Engine.events_fired (Core.Runner.engine t) in
  let delivered = Net.Network.delivered_messages (Core.Runner.network t) in
  { n;
    sim_s = float_of_int sim_seconds;
    wall_s;
    events;
    events_per_s = (if wall_s <= 0. then 0. else float_of_int events /. wall_s);
    minor_words_per_event = (if events = 0 then 0. else minor /. float_of_int events);
    delivered_msgs = delivered;
    minor_words_per_msg = (if delivered = 0 then 0. else minor /. float_of_int delivered);
    confirmed = r.Core.Runner.confirmed }

let ns ~fast = if fast then [ 4; 16; 64 ] else [ 4; 16; 64; 128; 300 ]

(* ------------------------------------------------------------------ *)
(* Baseline and gates                                                  *)
(* ------------------------------------------------------------------ *)

let schema =
  Bench_gate.
    [ int ~key:true "n" (fun r -> r.n);
      float 1 "sim_s" (fun r -> r.sim_s);
      float 2 "wall_s" ~gate:Lower_is_better (fun r -> r.wall_s);
      int "events" (fun r -> r.events);
      float 0 "events_per_s" (fun r -> r.events_per_s);
      float 1 "minor_words_per_event" ~gate:Lower_is_better (fun r -> r.minor_words_per_event);
      int "delivered_msgs" (fun r -> r.delivered_msgs);
      (* Gated since the n=300 anomaly: words/msg had crept superlinear
         in n through [retry_waiting_proposals] allocating a snapshot
         per datablock arrival; it is flat (~186 at n=128 and n=300)
         now that the retry pre-scans without allocating, and this
         gate keeps it that way. *)
      float 1 "minor_words_per_msg" ~gate:Lower_is_better (fun r -> r.minor_words_per_msg);
      int "confirmed" (fun r -> r.confirmed) ]

let run ~fast ~check =
  let rows =
    List.map
      (fun n ->
        let r = run_one ~fast n in
        Harness.say "  n=%-4d %.2fs wall for %.0fs simulated (%d events, %d msgs)" n r.wall_s
          r.sim_s r.events r.delivered_msgs;
        r)
      (ns ~fast)
  in
  Harness.say "";
  Bench_gate.finish ~id:"macro" ~file:"BENCH_sim.json" ~check [ Bench_gate.table schema rows ]

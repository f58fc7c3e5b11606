(* Tests for Chained Leopard (datablock decoupling on chain-based BFT,
   the §4.3 generalization). *)

open Sim

let checkb = Alcotest.(check bool)

let cfg ?(n = 4) () =
  Hybrid.Chained_leopard.make_cfg ~n ~alpha:20 ~links_per_block:2
    ~datablock_timeout:(Sim_time.ms 100) ~proposal_timeout:(Sim_time.ms 100)
    ~cost:Crypto.Cost_model.free ()

let spec ?(load = 2000.) ?(duration = 8) ?silent cfg =
  Hybrid.Chained_leopard.spec ~cfg ~load ~duration:(Sim_time.s duration)
    ~warmup:(Sim_time.s 2) ?silent ()

let test_progress_and_safety () =
  let r = Hybrid.Chained_leopard.run (spec ~silent:0 (cfg ())) in
  checkb "commits" true (r.Baseline.committed_heights > 0);
  checkb "safety" true r.Baseline.safety_ok;
  checkb "most confirmed" true (r.Baseline.confirmed > r.Baseline.offered * 7 / 10);
  checkb "latency recorded" true (Obs.Histogram.Snapshot.count r.Baseline.latency > 0)

(* A fixed run pinned field by field: the shared baseline harness must
   keep what chained Leopard simulates, so these numbers only move when
   its state machine itself changes. *)
let render_summary (r : Baseline.report) =
  Printf.sprintf "offered=%d confirmed=%d heights=%d leader_bps=%.0f p50=%.6f p99=%.6f safety=%b"
    r.Baseline.offered r.Baseline.confirmed r.Baseline.committed_heights r.Baseline.leader_bps
    (Obs.Histogram.Snapshot.quantile r.Baseline.latency 0.50 /. 1e9)
    (Obs.Histogram.Snapshot.quantile r.Baseline.latency 0.99 /. 1e9)
    r.Baseline.safety_ok

let golden_seed13_summary =
  "offered=16000 confirmed=15816 heights=332 leader_bps=2872000 p50=0.101712 p99=0.161481 \
   safety=true"

let test_golden_seed13_summary () =
  let sp = { (spec ~silent:1 (cfg ~n:7 ())) with Baseline.seed = 13L } in
  Alcotest.(check string) "seed-13 summary" golden_seed13_summary
    (render_summary (Hybrid.Chained_leopard.run sp))

let test_silent_f () =
  let r = Hybrid.Chained_leopard.run (spec (cfg ~n:7 ())) in
  checkb "live with f silent" true (r.Baseline.committed_heights > 0);
  checkb "safety" true r.Baseline.safety_ok

let test_leader_stays_light () =
  (* The point of the hybrid: the chain leader's traffic does not scale
     with the payload times n. Compare against plain HotStuff at the
     same load and scale. *)
  let n = 32 and load = 50_000. in
  let hybrid =
    Hybrid.Chained_leopard.run
      (Hybrid.Chained_leopard.spec
         ~cfg:(Hybrid.Chained_leopard.make_cfg ~n ~alpha:500 ~links_per_block:10
                 ~cost:Crypto.Cost_model.free ())
         ~load ~duration:(Sim_time.s 10) ~warmup:(Sim_time.s 3) ~silent:0 ())
  in
  let hotstuff =
    Hotstuff.Hs_replica.run
      (Hotstuff.Hs_replica.spec
         ~cfg:(Hotstuff.Hs_config.make ~n ~batch_size:800 ~cost:Crypto.Cost_model.free ())
         ~load ~duration:(Sim_time.s 10) ~warmup:(Sim_time.s 3) ~silent:0 ())
  in
  checkb "hybrid leader lighter than hotstuff leader" true
    (hybrid.Baseline.leader_bps < hotstuff.Baseline.leader_bps /. 2.);
  checkb "hybrid keeps throughput" true
    (hybrid.Baseline.throughput >= hotstuff.Baseline.throughput *. 0.8)

let prop_safety_random_seeds =
  QCheck.Test.make ~name:"safety under random seeds and silent subsets" ~count:6
    QCheck.(pair int64 (int_range 0 2))
    (fun (seed, silent) ->
      let r =
        Hybrid.Chained_leopard.run
          (Hybrid.Chained_leopard.spec ~cfg:(cfg ~n:7 ()) ~seed ~load:1500.
             ~duration:(Sim_time.s 8) ~warmup:(Sim_time.s 2) ~silent ())
      in
      r.Baseline.safety_ok)

let test_deterministic () =
  let a = Hybrid.Chained_leopard.run (spec ~silent:0 (cfg ())) in
  let b = Hybrid.Chained_leopard.run (spec ~silent:0 (cfg ())) in
  Alcotest.(check int) "same confirmed" a.Baseline.confirmed
    b.Baseline.confirmed

(* -- One-shot deadlines ------------------------------------------------------- *)

(* A bare n = 4 chained cluster on the test config: no client generator,
   leader 0; the test submits requests itself. Every datablock replica 1
   multicasts is recorded once, as (creation instant ms, request ids),
   through a fault hook that passes every message. *)
let bare_cluster () =
  let engine = Engine.create ~seed:5L () in
  let network =
    Net.Network.create engine ~n:4 ~meta:Hybrid.Chained_leopard.meta
      ~link:Net.Network.default_link
  in
  let packs = ref [] in
  Net.Network.set_fault_hook network (fun ~now:_ ~src ~dst msg ->
      (match msg with
       | Hybrid.Chained_leopard.Datablock_msg db when src = 1 && dst = 0 ->
         packs :=
           ( Int64.to_int (Int64.div db.Core.Datablock.created_at 1_000_000L),
             List.map (fun b -> b.Workload.Request.id) db.Core.Datablock.batches )
           :: !packs
       | _ -> ());
      Net.Network.Pass);
  let clients =
    Hybrid.Chained_leopard.start (cfg ())
      { Baseline.engine;
        network;
        key_rng = Rng.split (Engine.rng engine);
        leader = 0;
        is_silent = (fun _ -> false);
        commit = (fun ~height:_ ~digest:_ _ -> ()) }
  in
  let submit ms id =
    ignore
      (Engine.schedule_at engine ~at:(Sim_time.ms ms) (fun () ->
           clients.Baseline.submit ~target:1
             (Workload.Request.make ~id ~count:1 ~size_each:64 ~born:(Sim_time.ms ms) ())))
  in
  (engine, packs, submit)

(* Every timer is armed by the state change that creates its deadline:
   with no request, nothing is. *)
let test_idle_arms_nothing () =
  let engine, _, _ = bare_cluster () in
  Engine.run ~until:(Sim_time.s 5) engine;
  let events = Engine.events_fired engine in
  Engine.run ~until:(Sim_time.s 50) engine;
  Alcotest.(check int) "no engine event after 5 s" events (Engine.events_fired engine)

(* T = 100 ms. A lone request leaves at its submit instant (the idle
   pack); one that follows it leaves at the first one's birth + T, the
   age rule's deadline. *)
let test_idle_pack () =
  let engine, packs, submit = bare_cluster () in
  submit 10 1;
  submit 50 2;
  Engine.run ~until:(Sim_time.s 2) engine;
  Alcotest.(check (list (pair int (list int))))
    "replica 1's datablocks" [ (10, [ 1 ]); (110, [ 2 ]) ] (List.rev !packs)

let () =
  Alcotest.run "hybrid"
    [ ( "chained leopard",
        [ Alcotest.test_case "progress & safety" `Quick test_progress_and_safety;
          Alcotest.test_case "f silent" `Quick test_silent_f;
          Alcotest.test_case "golden seed-13 summary" `Quick test_golden_seed13_summary;
          Alcotest.test_case "leader stays light" `Slow test_leader_stays_light;
          Alcotest.test_case "deterministic" `Quick test_deterministic ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_safety_random_seeds ] );
      ( "deadlines",
        [ Alcotest.test_case "idle cluster arms nothing" `Quick test_idle_arms_nothing;
          Alcotest.test_case "idle pack, then the age rule" `Quick test_idle_pack ] ) ]

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
  checkb "commits" true (r.Hybrid.Chained_leopard.committed_heights > 0);
  checkb "safety" true r.Hybrid.Chained_leopard.safety_ok;
  checkb "most confirmed" true
    (r.Hybrid.Chained_leopard.confirmed > r.Hybrid.Chained_leopard.offered * 7 / 10);
  checkb "latency recorded" true (Obs.Histogram.Snapshot.count r.Hybrid.Chained_leopard.latency > 0)

let test_silent_f () =
  let r = Hybrid.Chained_leopard.run (spec (cfg ~n:7 ())) in
  checkb "live with f silent" true (r.Hybrid.Chained_leopard.committed_heights > 0);
  checkb "safety" true r.Hybrid.Chained_leopard.safety_ok

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
    Hotstuff.Hs_runner.run
      (Hotstuff.Hs_runner.spec
         ~cfg:(Hotstuff.Hs_config.make ~n ~batch_size:800 ~cost:Crypto.Cost_model.free ())
         ~load ~duration:(Sim_time.s 10) ~warmup:(Sim_time.s 3) ~silent:0 ())
  in
  checkb "hybrid leader lighter than hotstuff leader" true
    (hybrid.Hybrid.Chained_leopard.leader_bps < hotstuff.Hotstuff.Hs_runner.leader_bps /. 2.);
  checkb "hybrid keeps throughput" true
    (hybrid.Hybrid.Chained_leopard.throughput >= hotstuff.Hotstuff.Hs_runner.throughput *. 0.8)

let prop_safety_random_seeds =
  QCheck.Test.make ~name:"safety under random seeds and silent subsets" ~count:6
    QCheck.(pair int64 (int_range 0 2))
    (fun (seed, silent) ->
      let r =
        Hybrid.Chained_leopard.run
          (Hybrid.Chained_leopard.spec ~cfg:(cfg ~n:7 ()) ~seed ~load:1500.
             ~duration:(Sim_time.s 8) ~warmup:(Sim_time.s 2) ~silent ())
      in
      r.Hybrid.Chained_leopard.safety_ok)

let test_deterministic () =
  let a = Hybrid.Chained_leopard.run (spec ~silent:0 (cfg ())) in
  let b = Hybrid.Chained_leopard.run (spec ~silent:0 (cfg ())) in
  Alcotest.(check int) "same confirmed" a.Hybrid.Chained_leopard.confirmed
    b.Hybrid.Chained_leopard.confirmed

let () =
  Alcotest.run "hybrid"
    [ ( "chained leopard",
        [ Alcotest.test_case "progress & safety" `Quick test_progress_and_safety;
          Alcotest.test_case "f silent" `Quick test_silent_f;
          Alcotest.test_case "leader stays light" `Slow test_leader_stays_light;
          Alcotest.test_case "deterministic" `Quick test_deterministic ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) [ prop_safety_random_seeds ] ) ]

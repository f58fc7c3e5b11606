(* Tests for the chained-HotStuff baseline. *)

open Sim

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let cfg ?(n = 4) ?(batch = 50) () =
  Hotstuff.Hs_config.make ~n ~batch_size:batch ~propose_timeout:(Sim_time.ms 20)
    ~cost:Crypto.Cost_model.free ()

let spec ?(load = 2000.) ?(duration = 8) ?silent cfg =
  Hotstuff.Hs_replica.spec ~cfg ~load ~duration:(Sim_time.s duration) ~warmup:(Sim_time.s 2)
    ~silent:(Option.value silent ~default:0) ()

let test_types () =
  let b = Hotstuff.Hs_types.make_block ~height:1 ~parent:Hotstuff.Hs_types.genesis_hash ~batch:[] in
  checki "req count" 0 b.Hotstuff.Hs_types.req_count;
  let b2 = Hotstuff.Hs_types.make_block ~height:2 ~parent:(Hotstuff.Hs_types.block_hash b) ~batch:[] in
  checkb "hash differs by height/parent" false
    (Crypto.Hash.equal (Hotstuff.Hs_types.block_hash b) (Hotstuff.Hs_types.block_hash b2));
  checkb "vote payload binds height" true
    (Hotstuff.Hs_types.vote_payload ~height:1 ~block_hash:(Hotstuff.Hs_types.block_hash b)
     <> Hotstuff.Hs_types.vote_payload ~height:2 ~block_hash:(Hotstuff.Hs_types.block_hash b))

let test_commit_progress () =
  let r = Hotstuff.Hs_replica.run (spec (cfg ())) in
  checkb "commits happen" true (r.Baseline.committed_heights > 0);
  checkb "safety" true r.Baseline.safety_ok;
  checkb "most offered confirmed" true (r.Baseline.confirmed > r.Baseline.offered * 8 / 10);
  checkb "latency recorded" true (Obs.Histogram.Snapshot.count r.Baseline.latency > 0)

(* A fixed run pinned field by field: the shared baseline harness must
   keep what each protocol simulates, so these numbers only move when the
   HotStuff state machine itself changes. *)
let render_summary (r : Baseline.report) =
  Printf.sprintf
    "offered=%d confirmed=%d heights=%d leader_sent=%d leader_received=%d leader_bps=%.0f \
     goodput_bps=%.0f p50=%.6f p99=%.6f safety=%b"
    r.Baseline.offered r.Baseline.confirmed r.Baseline.committed_heights
    r.Baseline.leader_sent_bytes r.Baseline.leader_received_bytes r.Baseline.leader_bps
    r.Baseline.goodput_bps
    (Obs.Histogram.Snapshot.quantile r.Baseline.latency 0.50 /. 1e9)
    (Obs.Histogram.Snapshot.quantile r.Baseline.latency 0.99 /. 1e9)
    r.Baseline.safety_ok

let golden_seed13_summary =
  "offered=16000 confirmed=15840 heights=396 leader_sent=4791600 leader_received=1610400 \
   leader_bps=8536000 goodput_bps=2048000 p50=0.072352 p99=0.080740 safety=true"

let test_golden_seed13_summary () =
  let sp = { (spec ~silent:1 (cfg ())) with Baseline.seed = 13L } in
  Alcotest.(check string) "seed-13 summary" golden_seed13_summary
    (render_summary (Hotstuff.Hs_replica.run sp))

let test_silent_f_live () =
  let c = cfg ~n:7 () in
  let r = Hotstuff.Hs_replica.run (spec ~silent:c.Hotstuff.Hs_config.f (cfg ~n:7 ())) in
  checkb "live with f silent" true (r.Baseline.committed_heights > 0);
  checkb "safety" true r.Baseline.safety_ok

let test_leader_bottleneck_shape () =
  (* Doubling n roughly doubles the leader's egress per confirmed
     request — Eq. (1). Run both at the same saturating load on a slow
     link so the leader NIC is the binding constraint. *)
  let slow = Net.Network.{ default_link with out_bps = mbps 50.; in_bps = mbps 50. } in
  let run n =
    let c = Hotstuff.Hs_config.make ~n ~batch_size:200 ~cost:Crypto.Cost_model.free () in
    Hotstuff.Hs_replica.run
      (Hotstuff.Hs_replica.spec ~cfg:c ~link:slow ~load:50_000. ~duration:(Sim_time.s 10)
         ~warmup:(Sim_time.s 3) ~silent:0 ())
  in
  let r8 = run 8 and r16 = run 16 in
  checkb "throughput roughly halves when n doubles" true
    (r16.Baseline.throughput < 0.75 *. r8.Baseline.throughput);
  checkb "both saturated near link rate" true
    (r8.Baseline.leader_bps > 0.5 *. Net.Network.mbps 50.)

let test_batch_size_amortizes () =
  (* Fig 7's mechanism: a tiny batch wastes round trips; a larger batch
     amortizes them. *)
  let run batch = (Hotstuff.Hs_replica.run (spec ~load:20_000. (cfg ~n:4 ~batch ()))).Baseline.throughput in
  let small = run 10 and big = run 500 in
  checkb "bigger batch, higher throughput" true (big > small)

let () =
  Alcotest.run "hotstuff"
    [ ( "hotstuff",
        [ Alcotest.test_case "types" `Quick test_types;
          Alcotest.test_case "commit progress" `Quick test_commit_progress;
          Alcotest.test_case "f silent live" `Quick test_silent_f_live;
          Alcotest.test_case "golden seed-13 summary" `Quick test_golden_seed13_summary;
          Alcotest.test_case "leader bottleneck shape" `Slow test_leader_bottleneck_shape;
          Alcotest.test_case "batching amortizes" `Slow test_batch_size_amortizes ] ) ]

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

module C = Hotstuff.Chain.Make (Hotstuff.Hs_replica.Requests)

let test_types () =
  let b = C.make_block ~height:1 ~parent:C.genesis_hash [] in
  checki "payload bytes" 0 b.Hotstuff.Chain.payload_bytes;
  let b2 = C.make_block ~height:2 ~parent:b.Hotstuff.Chain.hash [] in
  checkb "hash differs by height/parent" false
    (Crypto.Hash.equal b.Hotstuff.Chain.hash b2.Hotstuff.Chain.hash);
  checkb "vote payload binds height" true
    (C.vote_payload ~height:1 ~block_hash:b.Hotstuff.Chain.hash
     <> C.vote_payload ~height:2 ~block_hash:b.Hotstuff.Chain.hash)

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
  "offered=16000 confirmed=15872 heights=413 leader_sent=4796736 leader_received=1612896 \
   leader_bps=8546176 goodput_bps=2042539 p50=0.065536 p99=0.076546 safety=true"

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

(* The shared chain at one follower (replica 1 of n = 4, leader 0), fed
   proposals by hand. Blocks carry datablock links, as in chained Leopard:
   block h links datablock h, and only the datablocks in [present] are in
   the follower's pool at the start. *)
module L = Hotstuff.Chain.Make (Hybrid.Chained_leopard.Links)

let follower ~present =
  let engine = Engine.create ~seed:1L () in
  let network =
    Net.Network.create engine ~n:4 ~meta:Hotstuff.Chain.meta ~link:Net.Network.default_link
  in
  let rng = Rng.create 7L in
  let tsetup, tkeys = Crypto.Threshold.keygen rng ~threshold:2 ~parties:4 in
  let _, sk = Crypto.Signature.keygen rng in
  let pool = Core.Datablock_pool.create () in
  let dbs =
    Array.init 6 (fun i ->
        Core.Datablock.create ~sk ~creator:2 ~counter:(i + 1) ~now:Sim_time.zero
          [ Workload.Request.make ~id:(i + 1) ~count:1 ~size_each:8 ~born:Sim_time.zero () ])
  in
  let add h = ignore (Core.Datablock_pool.add pool dbs.(h - 1)) in
  List.iter add present;
  let committed = ref [] in
  let chain =
    L.create ~engine ~network ~wrap:Fun.id ~id:1 ~leader:0 ~f:1 ~tsetup ~tkey:tkeys.(1)
      ~silent:false ~cpu:(Net.Cpu.create engine ~cores:1) ~cost:Crypto.Cost_model.free
      ~block_size:1 ~propose_timeout:(Sim_time.ms 100) ~pool
      ~commit:(fun ~height ~digest:_ _ -> committed := !committed @ [ height ])
  in
  let rec build h parent =
    if h > 6 then []
    else
      let b = L.make_block ~height:h ~parent [ Core.Datablock.hash dbs.(h - 1) ] in
      b :: build (h + 1) b.Hotstuff.Chain.hash
  in
  let blocks = Array.of_list (build 1 L.genesis_hash) in
  let qc (b : _ Hotstuff.Chain.block) =
    let payload = L.vote_payload ~height:b.height ~block_hash:b.hash in
    let shares = List.map (fun k -> Crypto.Threshold.sign_share tkeys.(k) payload) [ 0; 2; 3 ] in
    { Hotstuff.Chain.qc_height = b.height;
      qc_block = b.hash;
      qc_proof = Option.get (Crypto.Threshold.combine tsetup payload shares) }
  in
  (* Proposal h, justified by QC(h - 1). *)
  let propose h =
    L.try_vote chain blocks.(h - 1) (if h = 1 then None else Some (qc blocks.(h - 2)))
  in
  (propose, add, committed)

let outcome =
  Alcotest.testable
    (fun ppf o ->
      Fmt.string ppf
        (match o with
         | Hotstuff.Chain.Stored -> "Stored"
         | Hotstuff.Chain.Waiting -> "Waiting"
         | Hotstuff.Chain.Refused -> "Refused"))
    ( = )

let heights = Alcotest.(list int)

let test_three_chain () =
  let propose, _, committed = follower ~present:[ 1; 2; 3; 4; 5; 6 ] in
  List.iter (fun h -> Alcotest.check outcome "stored" Hotstuff.Chain.Stored (propose h)) [ 1; 2; 3 ];
  Alcotest.check heights "QC(2) commits nothing" [] !committed;
  ignore (propose 4);
  Alcotest.check heights "QC(3) commits 1, not 2" [ 1 ] !committed;
  ignore (propose 5);
  Alcotest.check heights "QC(4) commits 2" [ 1; 2 ] !committed

let test_waiting_proposal_retried_below_vote () =
  let propose, add, committed = follower ~present:[ 2; 3; 4; 5; 6 ] in
  Alcotest.check outcome "1 waits for its datablock" Hotstuff.Chain.Waiting (propose 1);
  Alcotest.check outcome "2 is voted" Hotstuff.Chain.Stored (propose 2);
  add 1;
  Alcotest.check outcome "1 is stored below the vote" Hotstuff.Chain.Stored (propose 1);
  ignore (propose 3);
  ignore (propose 4);
  ignore (propose 5);
  Alcotest.check heights "1 and 2 commit" [ 1; 2 ] !committed

(* A 4-replica HotStuff cluster fed one request every 2 ms for 8 s: every
   replica's chain keeps only the heights above its commit point, not
   one block and one quorum per height of the run. *)
let test_chain_tables_bounded () =
  let engine = Engine.create ~seed:3L () in
  let network =
    Net.Network.create engine ~n:4 ~meta:Hotstuff.Chain.meta ~link:Net.Network.default_link
  in
  let tsetup, tkeys = Crypto.Threshold.keygen (Rng.create 11L) ~threshold:2 ~parties:4 in
  let committed = ref 0 in
  let replicas =
    Array.init 4 (fun id ->
        let pool = Core.Mempool.create () in
        let chain =
          C.create ~engine ~network ~wrap:Fun.id ~id ~leader:0 ~f:1 ~tsetup ~tkey:tkeys.(id)
            ~silent:false ~cpu:(Net.Cpu.create engine ~cores:1) ~cost:Crypto.Cost_model.free
            ~block_size:10 ~propose_timeout:(Sim_time.ms 10) ~pool
            ~commit:(fun ~height ~digest:_ _ -> if id = 1 then committed := height)
        in
        Net.Network.set_handler network id (fun ~src:_ m ->
            C.handle chain m ~try_vote:(fun block justify ->
                ignore (C.try_vote chain block justify)));
        (pool, chain))
  in
  let peak = Hashtbl.create 2 in
  let leader_pool, leader = replicas.(0) in
  let rec feed i =
    if i <= 4000 then begin
      Core.Mempool.add leader_pool
        (Workload.Request.make ~id:i ~count:1 ~size_each:8 ~born:(Engine.now engine) ());
      C.maybe_propose leader;
      Array.iter
        (fun (_, chain) ->
          List.iter
            (fun (name, size) ->
              let m = Option.value ~default:0 (Hashtbl.find_opt peak name) in
              Hashtbl.replace peak name (max m size))
            (C.sizes chain))
        replicas;
      ignore (Engine.schedule engine ~delay:(Sim_time.ms 2) (fun () -> feed (i + 1)))
    end
  in
  feed 1;
  Engine.run ~until:(Sim_time.s 9) engine;
  checkb "hundreds of heights committed" true (!committed > 300);
  let peak name = Option.value ~default:0 (Hashtbl.find_opt peak name) in
  if peak "blocks" > 4 || peak "votes" > 4 then
    Alcotest.failf "%d heights committed; peak %d blocks and %d quorums held" !committed
      (peak "blocks") (peak "votes")

(* A bare n = 4 HotStuff cluster on the test config, with no client:
   every timer is armed by the state change that creates its deadline,
   so nothing is. A request after 50 idle seconds finds the short timer
   long passed and is proposed at once. *)
let test_idle_arms_nothing () =
  let engine = Engine.create ~seed:5L () in
  let network =
    Net.Network.create engine ~n:4 ~meta:Hotstuff.Chain.meta ~link:Net.Network.default_link
  in
  let proposed = ref [] in
  Net.Network.set_fault_hook network (fun ~now ~src:_ ~dst msg ->
      (match msg with
       | Hotstuff.Chain.Proposal _ when dst = 1 -> proposed := now :: !proposed
       | _ -> ());
      Net.Network.Pass);
  let clients =
    Hotstuff.Hs_replica.start (cfg ())
      { Baseline.engine;
        network;
        key_rng = Rng.split (Engine.rng engine);
        leader = 0;
        is_silent = (fun _ -> false);
        commit = (fun ~height:_ ~digest:_ _ -> ()) }
  in
  Engine.run ~until:(Sim_time.s 5) engine;
  let events = Engine.events_fired engine in
  Engine.run ~until:(Sim_time.s 50) engine;
  checki "no engine event after 5 s" events (Engine.events_fired engine);
  ignore
    (Engine.schedule_at engine ~at:(Sim_time.s 51) (fun () ->
         clients.Baseline.submit ~target:0
           (Workload.Request.make ~id:1 ~count:1 ~size_each:64 ~born:(Sim_time.s 51) ())));
  Engine.run ~until:(Sim_time.s 52) engine;
  match !proposed with
  | [ at ] -> checkb "proposed within 1 ms" true (Sim_time.compare at (Sim_time.ms 51_001) < 0)
  | l -> Alcotest.failf "%d proposals" (List.length l)

let () =
  Alcotest.run "hotstuff"
    [ ( "hotstuff",
        [ Alcotest.test_case "types" `Quick test_types;
          Alcotest.test_case "commit progress" `Quick test_commit_progress;
          Alcotest.test_case "f silent live" `Quick test_silent_f_live;
          Alcotest.test_case "golden seed-13 summary" `Quick test_golden_seed13_summary;
          Alcotest.test_case "idle cluster arms nothing" `Quick test_idle_arms_nothing;
          Alcotest.test_case "leader bottleneck shape" `Slow test_leader_bottleneck_shape;
          Alcotest.test_case "batching amortizes" `Slow test_batch_size_amortizes ] );
      ( "chain",
        [ Alcotest.test_case "three-chain commit" `Quick test_three_chain;
          Alcotest.test_case "waiting proposal retried below the vote" `Quick
            test_waiting_proposal_retried_below_vote;
          Alcotest.test_case "tables bounded" `Quick test_chain_tables_bounded ] ) ]

(* Tests for the deterministic fault-injection subsystem: injector
   semantics, the scenario corpus against the safety/liveness oracles on
   the sim plane, view-change recovery on both planes, byte-identical
   replay, and TCP-cluster teardown hygiene. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

open Faults

let rng = Sim.Rng.create 2026L
let _pk, sk = Crypto.Signature.keygen rng

let timeout_msg =
  Core.Msg.Timeout { view = 3; sender = 2; signature = Crypto.Signature.sign sk "t" }

(* -- injector semantics -------------------------------------------------- *)

let test_partition_cuts_groups () =
  let inj = Injector.create ~n:4 ~rng:(Sim.Rng.create 1L) in
  checkb "no partition at start" false (Injector.partitioned inj);
  checkb "link faults report applied" true
    (Injector.apply inj (Scenario.Partition [ [ 0 ]; [ 1; 2; 3 ] ]));
  checkb "partitioned" true (Injector.partitioned inj);
  checkb "cut edge drops" true (Injector.decide inj ~src:0 ~dst:1 timeout_msg = Net.Network.Drop);
  checkb "cut edge drops (reverse)" true
    (Injector.decide inj ~src:2 ~dst:0 timeout_msg = Net.Network.Drop);
  checkb "same side passes" true
    (Injector.decide inj ~src:1 ~dst:3 timeout_msg = Net.Network.Pass);
  checkb "heal applied" true (Injector.apply inj Scenario.Heal);
  checkb "healed edge passes" true
    (Injector.decide inj ~src:0 ~dst:1 timeout_msg = Net.Network.Pass)

let test_unlisted_ids_form_implicit_group () =
  let inj = Injector.create ~n:4 ~rng:(Sim.Rng.create 1L) in
  ignore (Injector.apply inj (Scenario.Partition [ [ 0 ] ]) : bool);
  checkb "isolated node cut from the rest" true
    (Injector.decide inj ~src:0 ~dst:3 timeout_msg = Net.Network.Drop);
  checkb "the rest still talk" true
    (Injector.decide inj ~src:1 ~dst:2 timeout_msg = Net.Network.Pass)

let test_rule_matching () =
  let inj = Injector.create ~n:4 ~rng:(Sim.Rng.create 1L) in
  (* Kind filter: a rule on K_propose must not touch a Timeout. *)
  ignore
    (Injector.apply inj (Scenario.Drop (Scenario.rule ~kinds:[ Core.Msg.K_propose ] ()))
      : bool);
  checkb "kind mismatch passes" true
    (Injector.decide inj ~src:0 ~dst:1 timeout_msg = Net.Network.Pass);
  (* Src filter, first match wins over later rules. *)
  ignore (Injector.apply inj (Scenario.Drop (Scenario.rule ~src:2 ())) : bool);
  ignore
    (Injector.apply inj
       (Scenario.Delay (Scenario.rule ~src:2 (), Sim.Sim_time.ms 10))
      : bool);
  checki "three rules active" 3 (Injector.active_rules inj);
  checkb "src match drops (first rule wins)" true
    (Injector.decide inj ~src:2 ~dst:1 timeout_msg = Net.Network.Drop);
  checkb "other src passes" true
    (Injector.decide inj ~src:3 ~dst:1 timeout_msg = Net.Network.Pass);
  (* Heal clears rules too. *)
  ignore (Injector.apply inj Scenario.Heal : bool);
  checki "heal clears rules" 0 (Injector.active_rules inj);
  (* Process faults are not the injector's job. *)
  checkb "crash not applied here" false (Injector.apply inj (Scenario.Crash 1));
  checkb "revive not applied here" false (Injector.apply inj (Scenario.Revive 1))

let test_probabilistic_rule_is_deterministic () =
  let decisions seed =
    let inj = Injector.create ~n:4 ~rng:(Sim.Rng.create seed) in
    ignore (Injector.apply inj (Scenario.Drop (Scenario.rule ~prob:0.5 ())) : bool);
    List.init 200 (fun i ->
        Injector.decide inj ~src:(i mod 4) ~dst:((i + 1) mod 4) timeout_msg)
  in
  checkb "same seed, same decisions" true (decisions 5L = decisions 5L);
  checkb "coin actually flips" true
    (List.exists (fun d -> d = Net.Network.Drop) (decisions 5L)
    && List.exists (fun d -> d = Net.Network.Pass) (decisions 5L))

(* -- sim plane: the whole corpus must satisfy its oracle ----------------- *)

let run_sim ?(seed = 42L) build ~n =
  let sc = build ~n in
  let o = Sim_plane.run ~seed sc in
  if not (Oracle.outcome_ok o) then
    Alcotest.failf "sim %s n=%d failed:@.%a" sc.Scenario.name n Oracle.pp_verdict
      o.Oracle.verdict;
  o

let test_sim_corpus_n4 () =
  List.iter (fun build -> ignore (run_sim build ~n:4 : Oracle.outcome)) Corpus.all

(* The age rule is a deadline: a request is packed once it is
   [datablock_timeout] old, counted from its client's birth instant.
   Two things can hold it longer. (1) The client -> replica trip: a
   request that arrives just after a partial pack waits for the rate
   limit, which reopens [datablock_timeout] + 1 ns after that pack, so
   up to the trip past its own deadline. The trip is the target's
   ingress NIC: a client batch of a few 224-byte requests serialises in
   under 0.4 us at the default 4.9 Gb/s, and 1 ms of allowance also
   covers ~600 KB of other frames queued ahead of it, more than any
   corpus load keeps in flight. (2) That last nanosecond. The proposal
   clock and the alpha rule only ever pack earlier. *)
let test_sim_corpus_pack_age () =
  List.iter
    (fun build ->
      let sc = build ~n:4 in
      let cfg = Sim_plane.config sc in
      let bound = Sim.Sim_time.(cfg.Core.Config.datablock_timeout + ms 1) in
      let o = run_sim build ~n:4 in
      if Sim.Sim_time.compare o.Oracle.pack_age_max bound > 0 then
        Alcotest.failf "%s: a request was packed %Ld ns after its birth (bound %Ld)"
          sc.Scenario.name o.Oracle.pack_age_max bound)
    Corpus.all

let test_sim_corpus_n16_spot () =
  ignore (run_sim Corpus.leader_crash ~n:16 : Oracle.outcome);
  ignore (run_sim Corpus.partition_quorum ~n:16 : Oracle.outcome)

(* -- determinism: same (seed, scenario) => byte-identical trace ---------- *)

let test_replay_is_byte_identical () =
  let a = Sim_plane.run ~seed:7L (Corpus.leader_crash ~n:4) in
  let b = Sim_plane.run ~seed:7L (Corpus.leader_crash ~n:4) in
  let c = Sim_plane.run ~seed:8L (Corpus.leader_crash ~n:4) in
  checkb "trace non-trivial" true (String.length a.Oracle.trace > 1000);
  checkb "same seed, identical trace" true (String.equal a.Oracle.trace b.Oracle.trace);
  checkb "identical confirmed count" true (a.Oracle.confirmed = b.Oracle.confirmed);
  checkb "different seed, different trace" false
    (String.equal a.Oracle.trace c.Oracle.trace)

(* -- golden pins: what the sim plane does, recorded ----------------------- *)

(* MD5 of every corpus scenario's rendered trace at n=4, seed 42, recorded
   from an earlier build. Unlike the replay test above (two runs of the
   same binary) these catch a refactor that changes simulated behaviour. *)
let golden_trace_md5 =
  [ ("leader-crash", "818a9f162b97dfb1515b439f46a4c51e");
    ("leader-crash-checkpoint", "987ffe0ea7d2d01421f4b85a00462055");
    ("f-crashes", "79973f2fb1f854732dedddafda7fe1ff");
    ("partition-quorum", "03de6f90e00fd328d3345d2a219c1d37");
    ("slow-leader", "d2560fec93d3782492799c0bd0f2f97e");
    ("silence-leader", "db3759874a8b0f4f6cc68dda346e6998");
    ("equivocating-leader", "0c6a529fdbfce70858e206b639024c90");
    ("lagging-replica", "3b65a7551267a4fd3f3a5e16a04a6cae");
    ("duplicate-storm", "07538f3f60dbe83a72a0c5c8e9048791");
    ("leader-restart", "dc28551abee9025cff7c135f60933088");
    ("restart-checkpoint", "f155fb09b84508de699e4c6f2e98fd26");
    ("restart-torn-tail", "86e759ef70762ad9ea1becaa97b1be3d");
    ("restart-storm", "3b87f1c5ec50b976fdd3e821081225ae");
    ("overload-burst", "a653f980e426704d6c2ecbe515cefc36");
    ("slow-peer", "68a95ea7d8231dc604111ca5e617f266") ]

let test_golden_trace_digests () =
  checki "one digest per corpus scenario" (List.length Corpus.all)
    (List.length golden_trace_md5);
  List.iter
    (fun build ->
      let sc = build ~n:4 in
      let o = Sim_plane.run ~seed:42L sc in
      let name = sc.Scenario.name in
      Alcotest.(check string)
        (name ^ " trace md5")
        (Option.value ~default:"?" (List.assoc_opt name golden_trace_md5))
        (Digest.to_hex (Digest.string o.Oracle.trace)))
    Corpus.all

(* -- both planes: faults must actually force a view change and recover -- *)

let vc_scenarios =
  [ Corpus.leader_crash; Corpus.partition_quorum; Corpus.slow_leader;
    Corpus.silence_leader ]

let assert_view_change_recovery (o : Oracle.outcome) =
  let name = o.Oracle.scenario.Scenario.name in
  if not (Oracle.outcome_ok o) then
    Alcotest.failf "%s %s failed:@.%a" o.Oracle.plane name Oracle.pp_verdict
      o.Oracle.verdict;
  checkb (o.Oracle.plane ^ " " ^ name ^ " left view 1") true (o.Oracle.final_view >= 2);
  (* one definition of "view changes" on both planes *)
  checki
    (o.Oracle.plane ^ " " ^ name ^ " vc = final view - 1")
    (o.Oracle.final_view - 1) o.Oracle.view_changes;
  checkb
    (o.Oracle.plane ^ " " ^ name ^ " resumed confirming after the fault")
    true
    (o.Oracle.confirmed > o.Oracle.confirmed_at_heal)

let test_view_change_sim () =
  List.iter
    (fun build -> assert_view_change_recovery (run_sim build ~n:4))
    vc_scenarios

let test_view_change_tcp () =
  List.iter
    (fun build -> assert_view_change_recovery (Tcp_plane.run ~seed:42L (build ~n:4)))
    vc_scenarios

(* -- both planes: process restart must recover from the durable store ---- *)

let small_cfg =
  Core.Config.make ~n:4 ~alpha:10 ~bft_size:2 ~k:16 ~payload:64
    ~datablock_timeout:(Sim.Sim_time.ms 20) ~proposal_timeout:(Sim.Sim_time.ms 30)
    ~view_timeout:(Sim.Sim_time.ms 1500) ~fetch_grace:(Sim.Sim_time.ms 200)
    ~cost:Crypto.Cost_model.free ()

let restart_scenarios = [ Corpus.leader_restart; Corpus.restart_storm ]

let assert_restart_recovery (o : Oracle.outcome) =
  let name = o.Oracle.scenario.Scenario.name in
  if not (Oracle.outcome_ok o) then
    Alcotest.failf "%s %s failed:@.%a" o.Oracle.plane name Oracle.pp_verdict
      o.Oracle.verdict;
  checki (o.Oracle.plane ^ " " ^ name ^ " no double-vote evidence") 0
    o.Oracle.equivocations

let test_restart_sim () =
  List.iter
    (fun build -> assert_restart_recovery (run_sim build ~n:4))
    restart_scenarios

let test_restart_tcp () =
  List.iter
    (fun build -> assert_restart_recovery (Tcp_plane.run ~seed:42L (build ~n:4)))
    restart_scenarios

(* The acceptance run in one test: confirm >= 1000 requests, process-kill
   a replica, recover it from its WAL directory, and require it to rejoin
   and re-converge on the same state hash. *)
let test_tcp_restart_catches_up () =
  let cl = Transport.Cluster.create ~cfg:small_cfg ~load:2000. () in
  Fun.protect
    ~finally:(fun () -> Transport.Cluster.close cl)
    (fun () ->
      let loop = Transport.Cluster.loop cl in
      Transport.Cluster.start_load cl;
      let deadline =
        Transport.Loop.now_ns loop + Int64.to_int (Sim.Sim_time.s 20)
      in
      Transport.Cluster.run_while cl (fun cl ->
          Transport.Cluster.confirmed cl < 1000
          && Transport.Loop.now_ns loop < deadline);
      checkb "confirmed >= 1000 before the restart" true
        (Transport.Cluster.confirmed cl >= 1000);
      Transport.Cluster.restart_replica cl 2;
      (* Load keeps flowing over the restart; the recovered replica must
         keep voting without forking. *)
      let go_until = Transport.Loop.now_ns loop + Int64.to_int (Sim.Sim_time.s 1) in
      Transport.Cluster.run_while cl (fun _ -> Transport.Loop.now_ns loop < go_until);
      Transport.Cluster.stop_load cl;
      let drain =
        Transport.Loop.now_ns loop + Int64.to_int (Sim.Sim_time.s 10)
      in
      Transport.Cluster.run_while cl (fun cl ->
          Transport.Loop.now_ns loop < drain
          && not (Transport.Cluster.state_converged cl));
      checkb "restarted replica converged to the same state hash" true
        (Transport.Cluster.state_converged cl);
      checkb "ledgers agree after the restart" true
        (Core.Driver.ledgers_agree (Transport.Cluster.driver cl));
      Array.iter
        (fun r ->
          checki "no equivocation evidence" 0
            (List.length
               (Core.Datablock_pool.equivocations (Core.Replica.pool r))))
        (Transport.Cluster.replicas cl))

(* -- TCP accounting stays bounded ----------------------------------------- *)

(* The driver's per-serial counters are pruned at each checkpoint and its
   per-batch tables hold only unconfirmed batches, so across twenty
   checkpoints of steady load on real sockets every table stays flat
   instead of growing with the run. *)
let test_tcp_bookkeeping_bounded () =
  let cl =
    Transport.Cluster.create ~cfg:small_cfg ~load:2000.
      ~client_resend:(Sim.Sim_time.ms 500) ()
  in
  Fun.protect
    ~finally:(fun () -> Transport.Cluster.close cl)
    (fun () ->
      let loop = Transport.Cluster.loop cl in
      let driver = Transport.Cluster.driver cl in
      let interval = small_cfg.Core.Config.checkpoint_interval in
      let lw () = Core.Replica.low_watermark (Transport.Cluster.replicas cl).(0) in
      let peak = Hashtbl.create 4 in
      let sample () =
        List.iter
          (fun (name, size) ->
            let m = Option.value ~default:0 (Hashtbl.find_opt peak name) in
            Hashtbl.replace peak name (max m size))
          (Core.Driver.bookkeeping_sizes driver)
      in
      Transport.Cluster.start_load cl;
      let deadline = Transport.Loop.now_ns loop + Int64.to_int (Sim.Sim_time.s 60) in
      Transport.Cluster.run_while cl (fun _ ->
          sample ();
          lw () < 20 * interval && Transport.Loop.now_ns loop < deadline);
      checkb "twenty checkpoints" true (lw () >= 20 * interval);
      let peak name = Option.value ~default:0 (Hashtbl.find_opt peak name) in
      (* the client offers one batch per up non-leader per 10 ms tick *)
      let batches_per_s = 100 * (small_cfg.Core.Config.n - 1) in
      checkb "per-serial counters within the watermark window" true
        (peak "serials" <= 2 * small_cfg.Core.Config.k);
      checkb "outstanding batches within a second of load" true
        (peak "outstanding" <= batches_per_s);
      (* a deadline outlives its batch's confirmation by up to the re-send
         timeout plus one scan period *)
      checkb "re-send deadlines within two seconds of load" true
        (peak "resend_queue" <= 2 * batches_per_s);
      checkb "confirmed along the way" true (Transport.Cluster.confirmed cl > 1000))

(* -- TCP teardown hygiene ------------------------------------------------ *)

(* Per-run temp data directories must go with the cluster (the WAL dirs
   are part of teardown hygiene, like the fds). *)
let leopard_tmp_dirs () =
  let tmp = Filename.get_temp_dir_name () in
  Array.fold_left
    (fun acc name ->
      if String.length name >= 12 && String.equal (String.sub name 0 12) "leopard-data"
      then acc + 1
      else acc)
    0
    (try Sys.readdir tmp with Sys_error _ -> [||])

let live_fds () =
  match Sys.readdir "/proc/self/fd" with
  | fds -> Some (Array.length fds)
  | exception Sys_error _ -> None

let test_cluster_close_reaps_fds () =
  let baseline = ref None in
  let dirs_before = leopard_tmp_dirs () in
  for _round = 1 to 4 do
    let cl = Transport.Cluster.create ~cfg:small_cfg ~load:200. () in
    Transport.Cluster.start_load cl;
    let stop_at =
      Transport.Loop.now_ns (Transport.Cluster.loop cl)
      + Int64.to_int (Sim.Sim_time.ms 100)
    in
    Transport.Cluster.run_while cl (fun cl ->
        Transport.Loop.now_ns (Transport.Cluster.loop cl) < stop_at);
    Transport.Cluster.close cl;
    Transport.Cluster.close cl;
    (* idempotent *)
    checki "no leftover data directories" dirs_before (leopard_tmp_dirs ());
    match (live_fds (), !baseline) with
    | None, _ -> () (* no /proc: nothing to measure on this platform *)
    | Some n, None -> baseline := Some n
    | Some n, Some b ->
      if n > b + 2 then
        Alcotest.failf "fd leak across cluster teardown: %d -> %d" b n
  done

let test_cluster_close_after_kill () =
  (* Abnormal exit path: a replica marked down mid-run must not leave
     the teardown unable to reap the rest. *)
  let dirs_before = leopard_tmp_dirs () in
  let cl = Transport.Cluster.create ~cfg:small_cfg ~load:200. () in
  Transport.Cluster.start_load cl;
  Transport.Cluster.set_replica_down cl 2 true;
  let stop_at =
    Transport.Loop.now_ns (Transport.Cluster.loop cl)
    + Int64.to_int (Sim.Sim_time.ms 100)
  in
  Transport.Cluster.run_while cl (fun cl ->
      Transport.Loop.now_ns (Transport.Cluster.loop cl) < stop_at);
  Transport.Cluster.close cl;
  Transport.Cluster.close cl;
  checki "no leftover data directories after kill" dirs_before (leopard_tmp_dirs ());
  checkb "close survived a downed replica" true true

let () =
  Alcotest.run "faults"
    [ ( "injector",
        [ Alcotest.test_case "partition cuts groups" `Quick test_partition_cuts_groups;
          Alcotest.test_case "implicit group" `Quick test_unlisted_ids_form_implicit_group;
          Alcotest.test_case "rule matching" `Quick test_rule_matching;
          Alcotest.test_case "probabilistic determinism" `Quick
            test_probabilistic_rule_is_deterministic ] );
      ( "sim corpus",
        [ Alcotest.test_case "all scenarios pass at n=4" `Quick test_sim_corpus_n4;
          Alcotest.test_case "pack age within the timeout" `Quick test_sim_corpus_pack_age;
          Alcotest.test_case "spot checks at n=16" `Slow test_sim_corpus_n16_spot;
          Alcotest.test_case "replay is byte-identical" `Quick
            test_replay_is_byte_identical;
          Alcotest.test_case "golden trace digests" `Quick test_golden_trace_digests ] );
      ( "view change",
        [ Alcotest.test_case "sim plane recovers via view change" `Quick
            test_view_change_sim;
          Alcotest.test_case "tcp plane recovers via view change" `Slow
            test_view_change_tcp ] );
      ( "restart",
        [ Alcotest.test_case "sim plane recovers from the store" `Quick
            test_restart_sim;
          Alcotest.test_case "tcp plane recovers from the store" `Slow
            test_restart_tcp;
          Alcotest.test_case "tcp restart catches up to the same state" `Quick
            test_tcp_restart_catches_up ] );
      ( "accounting",
        [ Alcotest.test_case "tcp bookkeeping tables bounded" `Quick
            test_tcp_bookkeeping_bounded ] );
      ( "teardown",
        [ Alcotest.test_case "close reaps fds" `Quick test_cluster_close_reaps_fds;
          Alcotest.test_case "close after kill" `Quick test_cluster_close_after_kill ] )
    ]

(* Integration tests: full Leopard clusters on the simulated network.

   Safety (Theorem 5.3) and liveness (Theorem 5.4) are checked end-to-end
   under honest runs, silent/equivocating/censoring Byzantine replicas,
   leader failure with view change, and pre-GST adversarial delays. *)

open Sim

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* A small, fast cluster configuration: liveness tails are flushed by the
   partial-pack and short-timer paths. *)
let small_cfg ?(n = 4) ?(k = 16) ?(view_timeout = Sim_time.s 2) () =
  Core.Config.make ~n ~alpha:10 ~bft_size:2 ~k ~payload:64
    ~datablock_timeout:(Sim_time.ms 200) ~proposal_timeout:(Sim_time.ms 300) ~view_timeout
    ~fetch_grace:(Sim_time.ms 200) ~cost:Crypto.Cost_model.free ()

let run_spec ?(load = 400.) ?(duration = 12) ?(load_until = 6) ?byzantine ?stop_leader_at
    ?client_resend_timeout ?gst ?(seed = 42L) cfg =
  Core.Runner.spec ~cfg ~seed ~load ~duration:(Sim_time.s duration)
    ~warmup:(Sim_time.s 2) ~load_until:(Sim_time.s load_until)
    ?byzantine ?stop_leader_at ?client_resend_timeout ?gst ()

(* -- Honest runs -------------------------------------------------------------- *)

let test_honest_liveness_and_safety () =
  let r = Core.Runner.run (run_spec (small_cfg ())) in
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "all requests confirmed" true r.Core.Runner.all_confirmed;
  checki "confirmed = offered" r.Core.Runner.offered r.Core.Runner.confirmed;
  checkb "throughput positive" true (r.Core.Runner.throughput > 0.);
  checkb "blocks executed" true (r.Core.Runner.executed_blocks > 0);
  checki "no view change" 1 r.Core.Runner.final_view;
  checkb "latency recorded" true (Obs.Histogram.Snapshot.count r.Core.Runner.latency > 0)

let test_honest_larger_cluster () =
  let r = Core.Runner.run (run_spec ~load:2000. (small_cfg ~n:13 ())) in
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "liveness" true r.Core.Runner.all_confirmed

let test_deterministic_replay () =
  let a = Core.Runner.run (run_spec ~seed:7L (small_cfg ())) in
  let b = Core.Runner.run (run_spec ~seed:7L (small_cfg ())) in
  checki "same confirmed" a.Core.Runner.confirmed b.Core.Runner.confirmed;
  checki "same blocks" a.Core.Runner.executed_blocks b.Core.Runner.executed_blocks;
  checki "same leader bytes" a.Core.Runner.leader.Core.Runner.sent_bytes
    b.Core.Runner.leader.Core.Runner.sent_bytes

(* Stronger than spot-checking a few fields: two runs of the same spec
   and seed must produce reports that are indistinguishable down to the
   last histogram bucket and bandwidth category (the report is pure data,
   so a marshalled byte comparison covers every field at once). Guards
   the event engine, heap, RNG and NIC rewrites against any source of
   nondeterminism. *)
let test_deterministic_report_bytes () =
  let spec = run_spec ~seed:13L ~client_resend_timeout:(Sim_time.s 1) (small_cfg ()) in
  let a = Core.Runner.run spec in
  let b = Core.Runner.run spec in
  checkb "byte-identical reports" true
    (String.equal (Marshal.to_string a []) (Marshal.to_string b []))

(* Golden pin: the seed-13 re-send-enabled run, summarised field by
   field and compared against values recorded from an earlier build. The
   byte-identical tests above compare two runs of the same binary; this
   one catches a refactor that changes what the simulator does. *)
let render_summary (r : Core.Runner.report) =
  Printf.sprintf
    "offered=%d confirmed=%d blocks=%d leader_sent=%d p50=%.6f p99=%.6f vc=%d stages=%s"
    r.Core.Runner.offered r.Core.Runner.confirmed r.Core.Runner.executed_blocks
    r.Core.Runner.leader.Core.Runner.sent_bytes
    (Obs.Histogram.Snapshot.quantile r.Core.Runner.latency 0.50 /. 1e9)
    (Obs.Histogram.Snapshot.quantile r.Core.Runner.latency 0.99 /. 1e9)
    r.Core.Runner.view_changes
    (String.concat ","
       (List.map (fun (name, v) -> Printf.sprintf "%s:%.9f" name v) r.Core.Runner.stage_seconds))

let golden_seed13_summary =
  "offered=2397 confirmed=2397 blocks=124 leader_sent=121878 p50=0.046662 p99=0.144703 vc=0 \
   stages=Datablock Generation:71.460797922,Datablock Delivery:32.872190070,\
   Agreement:13.069260469,Response to Client:2.397000000"

(* The same run's exact nearest-rank quantiles (s), from its 900 raw
   confirmation latencies: a probe build that also logged each latency
   the driver records, sorted, read at rank ceil(q * 900). *)
let exact_seed13_p50 = 0.046546561
let exact_seed13_p99 = 0.146538071

let test_golden_seed13_summary () =
  let spec = run_spec ~seed:13L ~client_resend_timeout:(Sim_time.s 1) (small_cfg ()) in
  let r = Core.Runner.run spec in
  Alcotest.(check string) "seed-13 summary" golden_seed13_summary (render_summary r);
  List.iter
    (fun (name, q, exact) ->
      let est = Obs.Histogram.Snapshot.quantile r.Core.Runner.latency q /. 1e9 in
      if Float.abs (est -. exact) > exact /. 64. then
        Alcotest.failf "%s %.6f s is not within 1/64 of the exact %.6f s" name est exact)
    [ ("p50", 0.50, exact_seed13_p50); ("p99", 0.99, exact_seed13_p99) ]

(* Metrics are observation-only: attaching a registry must not perturb
   the simulation in any way — the report stays byte-for-byte what the
   unobserved run produces, while the registry still captures the run
   (per-replica commit counters, the confirm-latency histogram). *)
let test_metrics_do_not_perturb_report () =
  let bare = run_spec ~seed:13L ~client_resend_timeout:(Sim_time.s 1) (small_cfg ()) in
  let reg = Obs.Registry.create () in
  let observed = { bare with Core.Runner.obs = Some reg } in
  let a = Core.Runner.run bare in
  let b = Core.Runner.run observed in
  checkb "observed run byte-identical to bare run" true
    (String.equal (Marshal.to_string a []) (Marshal.to_string b []));
  let text = Obs.Registry.expose reg in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  checkb "registry saw replica commits" true (contains "leopard_replica_commits_total");
  checkb "registry saw confirmations" true (contains "leopard_confirm_latency_ns_count");
  checkb "confirm histogram non-empty" true
    (not (contains "leopard_confirm_latency_ns_count 0\n"))

let test_latency_breakdown_components () =
  let r = Core.Runner.run (run_spec (small_cfg ())) in
  let names = List.map fst r.Core.Runner.stage_seconds in
  List.iter
    (fun c -> checkb (c ^ " present") true (List.mem c names))
    [ "Datablock Generation"; "Datablock Delivery"; "Agreement"; "Response to Client" ]

let test_bandwidth_accounting_shape () =
  let r = Core.Runner.run (run_spec (small_cfg ())) in
  let recv = r.Core.Runner.leader.Core.Runner.received_by_category in
  let datablock_bytes = try List.assoc "datablock" recv with Not_found -> 0 in
  checkb "leader receives datablocks" true (datablock_bytes > 0);
  let sent = r.Core.Runner.leader.Core.Runner.sent_by_category in
  checkb "leader sends proposals" true (List.mem_assoc "proposal" sent);
  (* The decoupling: the leader's proposal egress stays below the
     datablock volume it ingests (β/α of the payload at real α; the
     margin is modest at this test's tiny α = 10). *)
  let proposal_bytes = List.assoc "proposal" sent in
  checkb "proposals smaller than datablocks" true (proposal_bytes < datablock_bytes)

(* -- Byzantine: silent (omission) ------------------------------------------------ *)

let test_silent_f_still_live () =
  let cfg = small_cfg ~n:7 () in
  let r = Core.Runner.run (run_spec ~load:800. ~byzantine:(Core.Runner.silent_f cfg) cfg) in
  checkb "safety with f silent" true r.Core.Runner.safety_ok;
  checkb "liveness with f silent" true r.Core.Runner.all_confirmed

let test_too_many_silent_stalls () =
  (* f + 1 silent replicas exceed the resilience bound: no progress (but
     never a safety violation). *)
  let cfg = small_cfg ~n:4 () in
  let byzantine = [ (2, Core.Byzantine.Silent); (3, Core.Byzantine.Silent) ] in
  let r = Core.Runner.run (run_spec ~byzantine cfg) in
  checki "nothing confirmed" 0 r.Core.Runner.confirmed;
  checkb "safety still holds" true r.Core.Runner.safety_ok

(* -- Byzantine: equivocating datablocks ------------------------------------------ *)

let test_equivocator_detected_and_contained () =
  let cfg = small_cfg ~n:4 () in
  let r =
    Core.Runner.run
      (run_spec ~duration:16
         ~byzantine:[ (0, Core.Byzantine.Equivocate_datablocks) ]
         ~client_resend_timeout:(Sim_time.s 1) cfg)
  in
  checkb "safety under equivocation" true r.Core.Runner.safety_ok;
  checkb "equivocation evidence collected" true (r.Core.Runner.equivocations_detected > 0);
  checkb "liveness via re-sends" true r.Core.Runner.all_confirmed

(* -- Byzantine: censorship -------------------------------------------------------- *)

let test_censor_defeated_by_resend () =
  let cfg = small_cfg ~n:4 () in
  let r =
    Core.Runner.run
      (run_spec ~duration:16 ~byzantine:[ (0, Core.Byzantine.Censor) ]
         ~client_resend_timeout:(Sim_time.s 1) cfg)
  in
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "censored requests recovered" true r.Core.Runner.all_confirmed

let test_censor_without_resend_loses () =
  (* A resend timeout longer than the run means clients do target the
     censor (they cannot tell it is Byzantine) but never re-send. *)
  let cfg = small_cfg ~n:4 () in
  let r =
    Core.Runner.run
      (run_spec ~byzantine:[ (0, Core.Byzantine.Censor) ]
         ~client_resend_timeout:(Sim_time.s 3600) cfg)
  in
  checkb "some requests censored" false r.Core.Runner.all_confirmed;
  checkb "others still confirm" true (r.Core.Runner.confirmed > 0)

(* -- View change ------------------------------------------------------------------- *)

let test_view_change_on_leader_failure () =
  let cfg = small_cfg ~n:4 ~view_timeout:(Sim_time.s 1) () in
  let r =
    Core.Runner.run
      (run_spec ~duration:25 ~load_until:10 ~stop_leader_at:(Sim_time.s 4)
         ~client_resend_timeout:(Sim_time.s 1) cfg)
  in
  checkb "entered a later view" true (r.Core.Runner.final_view >= 2);
  checkb "safety across views" true r.Core.Runner.safety_ok;
  checkb "liveness restored by new leader" true r.Core.Runner.all_confirmed;
  (match r.Core.Runner.vc_trigger_to_entry with
   | Some seconds -> checkb "view change completes in seconds" true (seconds < 15.)
   | None -> Alcotest.fail "view-change duration not measured");
  checkb "view-change bytes accounted" true (r.Core.Runner.vc_bytes > 0)

let test_view_change_crash_strategy () =
  (* Crash via the Byzantine strategy rather than the runner switch. *)
  let cfg = small_cfg ~n:4 ~view_timeout:(Sim_time.s 1) () in
  let leader = Core.Config.leader_of_view cfg 1 in
  let r =
    Core.Runner.run
      (run_spec ~duration:25 ~load_until:10
         ~byzantine:[ (leader, Core.Byzantine.Crash_at (Sim_time.s 4)) ]
         ~client_resend_timeout:(Sim_time.s 1) cfg)
  in
  checkb "view advanced" true (r.Core.Runner.final_view >= 2);
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "liveness" true r.Core.Runner.all_confirmed

let test_two_consecutive_leader_failures () =
  (* Leaders of views 1 and 2 both crash: two view changes are needed. *)
  let cfg = small_cfg ~n:7 ~view_timeout:(Sim_time.s 1) () in
  let l1 = Core.Config.leader_of_view cfg 1 in
  let l2 = Core.Config.leader_of_view cfg 2 in
  let r =
    Core.Runner.run
      (run_spec ~duration:35 ~load_until:8 ~load:500.
         ~byzantine:
           [ (l1, Core.Byzantine.Crash_at (Sim_time.s 3));
             (l2, Core.Byzantine.Crash_at (Sim_time.s 3)) ]
         ~client_resend_timeout:(Sim_time.s 1) cfg)
  in
  checkb "reached view 3+" true (r.Core.Runner.final_view >= 3);
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "liveness" true r.Core.Runner.all_confirmed

(* -- Partial synchrony --------------------------------------------------------------- *)

let test_pre_gst_reordering_safe_and_live () =
  let cfg = small_cfg ~n:4 () in
  let r =
    Core.Runner.run (run_spec ~duration:20 ~load_until:8 ~gst:(Sim_time.s 5) cfg)
  in
  checkb "safety through asynchrony" true r.Core.Runner.safety_ok;
  checkb "liveness after GST" true r.Core.Runner.all_confirmed

let prop_safety_under_random_faults =
  QCheck.Test.make ~name:"safety holds for random seeds and fault mixes" ~count:8
    QCheck.(pair int64 (int_range 0 2))
    (fun (seed, mix) ->
      let cfg = small_cfg ~n:7 () in
      let byzantine =
        match mix with
        | 0 -> Core.Runner.silent_f cfg
        | 1 -> [ (2, Core.Byzantine.Equivocate_datablocks); (3, Core.Byzantine.Silent) ]
        | _ -> [ (2, Core.Byzantine.Censor); (3, Core.Byzantine.Crash_at (Sim_time.s 3)) ]
      in
      let r =
        Core.Runner.run
          (run_spec ~seed ~duration:10 ~load_until:5 ~load:600. ~byzantine
             ~client_resend_timeout:(Sim_time.s 1) cfg)
      in
      r.Core.Runner.safety_ok)

(* -- Protocol internals through the incremental interface ----------------------------- *)

let test_watermarks_bound_parallelism () =
  let cfg = small_cfg ~n:4 ~k:4 () in
  let t = Core.Runner.create (run_spec ~load:2000. cfg) in
  Core.Runner.run_until t (Sim_time.s 6);
  let leader = Core.Config.leader_of_view cfg 1 in
  let r = (Core.Runner.replicas t).(leader) in
  let highest = Core.Ledger.highest_confirmed (Core.Replica.ledger r) in
  let lw = Core.Replica.low_watermark r in
  checkb "confirmed serials within window of lw" true (highest <= lw + cfg.Core.Config.k)

let test_checkpoints_advance_watermark () =
  let cfg = small_cfg ~n:4 ~k:8 () in
  let t = Core.Runner.create (run_spec ~load:2000. ~duration:12 ~load_until:10 cfg) in
  Core.Runner.run_until t (Sim_time.s 12);
  let r = (Core.Runner.replicas t).(0) in
  checkb "lw advanced by checkpoints" true (Core.Replica.low_watermark r > 0)

let test_notar_cache_bounded () =
  (* The verified-notarization cache is the one table-shaped memo in the
     replica; view changes feed it, and the cap must hold afterwards. *)
  let cfg = small_cfg ~n:4 ~view_timeout:(Sim_time.s 1) () in
  let t =
    Core.Runner.create
      (run_spec ~duration:20 ~load_until:8 ~stop_leader_at:(Sim_time.s 4)
         ~client_resend_timeout:(Sim_time.s 1) cfg)
  in
  Core.Runner.run_until t (Sim_time.s 20);
  let seen = ref 0 in
  Array.iter
    (fun r ->
      let len = Core.Replica.notar_cache_len r in
      seen := !seen + len;
      checkb "notar cache within cap" true (len <= Core.Replica.notar_cache_cap))
    (Core.Runner.replicas t);
  checkb "view change exercised the cache" true (!seen > 0)

let test_state_hash_agreement () =
  let cfg = small_cfg ~n:4 () in
  let t = Core.Runner.create (run_spec cfg) in
  Core.Runner.run_until t (Sim_time.s 12);
  let replicas = Core.Runner.replicas t in
  let executed = Array.map (fun r -> Core.Ledger.executed_up_to (Core.Replica.ledger r)) replicas in
  let all_equal = Array.for_all (fun e -> e = executed.(0)) executed in
  if all_equal then begin
    let h0 = Core.Replica.state_hash replicas.(0) in
    Array.iter
      (fun r -> checkb "state hashes agree" true (Crypto.Hash.equal h0 (Core.Replica.state_hash r)))
      replicas
  end

let test_datablock_generation_excludes_leader () =
  let cfg = small_cfg ~n:4 () in
  let t = Core.Runner.create (run_spec cfg) in
  Core.Runner.run_until t (Sim_time.s 8);
  let leader = Core.Config.leader_of_view cfg 1 in
  checki "leader generates no datablocks" 0
    (Core.Replica.datablocks_created (Core.Runner.replicas t).(leader));
  checkb "non-leader generates datablocks" true
    (Core.Replica.datablocks_created (Core.Runner.replicas t).((leader + 1) mod 4) > 0)

let test_equivocator_punished () =
  let cfg =
    Core.Config.make ~n:4 ~alpha:10 ~bft_size:2 ~k:16 ~payload:64
      ~datablock_timeout:(Sim_time.ms 200) ~proposal_timeout:(Sim_time.ms 300)
      ~view_timeout:(Sim_time.s 2) ~cost:Crypto.Cost_model.free ~punish_equivocators:true ()
  in
  let t =
    Core.Runner.create
      (run_spec ~duration:16
         ~byzantine:[ (0, Core.Byzantine.Equivocate_datablocks) ]
         ~client_resend_timeout:(Sim_time.s 1) cfg)
  in
  Core.Runner.run_until t (Sim_time.s 16);
  let r = Core.Runner.report t in
  checkb "safety" true r.Core.Runner.safety_ok;
  (* every honest replica that saw both variants kicked the creator out *)
  let punishers =
    List.filter
      (fun id -> List.mem 0 (Core.Replica.punished (Core.Runner.replicas t).(id)))
      (Core.Driver.honest_ids (Core.Runner.driver t))
  in
  checkb "someone punished the equivocator" true (punishers <> []);
  checkb "liveness (re-sends route around the outcast)" true r.Core.Runner.all_confirmed

(* Equivocation and a view change: no honest replica may execute two
   datablocks of one (creator, counter) slot. An equivocating view-1
   leader sends each variant of a slot to a different half and both to
   its successor; once it stops, the successor re-proposes what the
   abandoned proposals linked, and the rival variant it stored must not
   be among them. With a 1 s view timeout a third leader follows before
   the second leader's blocks have executed everywhere; with a
   non-leader equivocator, the view-1 leader's choice reaches the
   replicas that accepted the other variant. With k and the checkpoint
   interval at 1024 nothing is pruned, so the whole executed ledger and
   its datablocks stay inspectable. *)
let test_new_leader_never_links_a_rival () =
  let run ~equivocator ~view_timeout =
    let cfg =
      Core.Config.make ~n:4 ~alpha:10 ~bft_size:2 ~k:1024 ~checkpoint_interval:1024 ~payload:64
        ~datablock_timeout:(Sim_time.ms 200) ~proposal_timeout:(Sim_time.ms 300)
        ~view_timeout:(Sim_time.s view_timeout) ~fetch_grace:(Sim_time.ms 200)
        ~cost:Crypto.Cost_model.free ~leader_generates_datablocks:true ()
    in
    let byzantine =
      [ ((if equivocator = `Leader then Core.Config.leader_of_view cfg 1 else 0),
         Core.Byzantine.Equivocate_datablocks) ]
    in
    let t =
      Core.Runner.create
        (run_spec ~byzantine ~stop_leader_at:(Sim_time.s 3) ~client_resend_timeout:(Sim_time.s 1)
           cfg)
    in
    Core.Runner.run_until t (Sim_time.s 12);
    let case = Printf.sprintf "%s equivocator, %d s view timeout"
        (if equivocator = `Leader then "leader" else "non-leader") view_timeout in
    checkb (case ^ ": safety") true (Core.Runner.report t).Core.Runner.safety_ok;
    checkb (case ^ ": equivocation seen") true
      ((Core.Runner.report t).Core.Runner.equivocations_detected > 0);
    List.iter
      (fun id ->
        let r = (Core.Runner.replicas t).(id) in
        let slots = Hashtbl.create 256 in
        List.iter
          (fun (_, (block : Core.Bftblock.t)) ->
            List.iter
              (fun h ->
                match Core.Datablock_pool.find (Core.Replica.pool r) h with
                | Some db ->
                  let slot = (db.Core.Datablock.header.creator, db.Core.Datablock.header.counter) in
                  let seen = Option.value ~default:[] (Hashtbl.find_opt slots slot) in
                  if not (List.exists (Crypto.Hash.equal h) seen) then
                    Hashtbl.replace slots slot (h :: seen)
                | None -> Alcotest.failf "%s: replica %d: executed link not in its pool" case id)
              block.Core.Bftblock.links)
          (Core.Ledger.executed_range (Core.Replica.ledger r) ~from_:0);
        checkb (case ^ ": executed something") true (Hashtbl.length slots > 0);
        checki
          (Printf.sprintf "%s: replica %d: slots executed with two variants" case id)
          0
          (Hashtbl.fold (fun _ hs n -> if List.length hs > 1 then n + 1 else n) slots 0))
      (Core.Driver.honest_ids (Core.Runner.driver t))
  in
  run ~equivocator:`Leader ~view_timeout:2;
  run ~equivocator:`Leader ~view_timeout:1;
  run ~equivocator:`Other ~view_timeout:2

let test_client_fanout_counts_once () =
  (* s = 3: every batch lands at three replicas; duplicates confirm but
     each request is counted once. *)
  let cfg =
    Core.Config.make ~n:7 ~alpha:10 ~bft_size:2 ~k:16 ~payload:64 ~s:3
      ~datablock_timeout:(Sim_time.ms 200) ~proposal_timeout:(Sim_time.ms 300)
      ~cost:Crypto.Cost_model.free ()
  in
  let r = Core.Runner.run (run_spec ~load:600. cfg) in
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "no double counting" true (r.Core.Runner.confirmed <= r.Core.Runner.offered);
  checkb "liveness" true r.Core.Runner.all_confirmed

let test_pure_algorithm1_packing () =
  (* datablock_timeout = 0: datablocks carry exactly >= alpha requests
     (no partial packs). Steady state must still confirm. *)
  let cfg =
    Core.Config.make ~n:4 ~alpha:20 ~bft_size:2 ~k:16 ~payload:64 ~datablock_timeout:0L
      ~proposal_timeout:0L ~cost:Crypto.Cost_model.free ()
  in
  let r = Core.Runner.run (run_spec ~load:2000. ~duration:10 ~load_until:10 cfg) in
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "steady-state throughput" true (r.Core.Runner.throughput > 1000.)

let test_lagging_replica_catches_up () =
  (* Replica 3 is isolated by the adversary for 6 s; checkpoints bring it
     back via state transfer and the cluster never stalls. *)
  let cfg = small_cfg ~n:4 () in
  let t = Core.Runner.create (run_spec ~duration:16 ~load_until:8 cfg) in
  let rng = Rng.split (Engine.rng (Core.Runner.engine t)) in
  Net.Network.set_extra_delay (Core.Runner.network t)
    (Net.Partial_sync.combine
       [ Net.Partial_sync.target_node ~gst:(Sim_time.s 6) ~victim:3 ~delay:(Sim_time.s 2);
         Net.Partial_sync.until_gst ~rng ~gst:Sim_time.zero ~max_delay:0L ]);
  Core.Runner.run_until t (Sim_time.s 16);
  let r = Core.Runner.report t in
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "liveness" true r.Core.Runner.all_confirmed;
  let lagger = (Core.Runner.replicas t).(3) in
  checkb "lagger caught up" true
    (Core.Ledger.executed_up_to (Core.Replica.ledger lagger) > 0)

let test_optimistic_responsiveness () =
  (* §5.2: with an honest leader after GST, confirmation latency is a
     small multiple of the actual network delay δ (~7δ), not of any
     timeout. Run with instant packing (α = 1 request) at two values of
     δ and check the latency is a one-digit multiple of δ that scales
     with it. *)
  let run delta_ms =
    let cfg =
      Core.Config.make ~n:4 ~alpha:1 ~bft_size:1 ~k:64 ~payload:64
        ~proposal_timeout:(Sim_time.ms 1) ~cost:Crypto.Cost_model.free ()
    in
    let link =
      Net.Network.
        { out_bps = 1e9; in_bps = 1e9; prop_delay = Sim_time.ms delta_ms; jitter = 0L; lanes = 1 }
    in
    let sp =
      Core.Runner.spec ~cfg ~link ~load:50. ~duration:(Sim_time.s 10) ~warmup:(Sim_time.s 1)
        ~load_until:(Sim_time.s 8) ()
    in
    let r = Core.Runner.run sp in
    checkb "safety" true r.Core.Runner.safety_ok;
    Obs.Histogram.Snapshot.quantile r.Core.Runner.latency 0.5 /. 1e9
  in
  let lat10 = run 10 and lat40 = run 40 in
  checkb "latency is a few delta (10ms)" true (lat10 > 0.03 && lat10 < 0.1);
  checkb "latency is a few delta (40ms)" true (lat40 > 0.12 && lat40 < 0.4);
  checkb "scales with delta, not with a timeout" true (lat40 > 2.5 *. lat10)

let test_single_channel_still_correct () =
  (* The ablation knob must not affect correctness, only performance. *)
  let cfg =
    Core.Config.make ~n:4 ~alpha:10 ~bft_size:2 ~payload:64
      ~datablock_timeout:(Sim_time.ms 200) ~proposal_timeout:(Sim_time.ms 300)
      ~fetch_grace:(Sim_time.ms 200) ~cost:Crypto.Cost_model.free ~priority_channels:false ()
  in
  let r = Core.Runner.run (run_spec cfg) in
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "liveness" true r.Core.Runner.all_confirmed

let test_leader_generates_datablocks_still_correct () =
  let cfg =
    Core.Config.make ~n:4 ~alpha:10 ~bft_size:2 ~payload:64
      ~datablock_timeout:(Sim_time.ms 200) ~proposal_timeout:(Sim_time.ms 300)
      ~fetch_grace:(Sim_time.ms 200) ~cost:Crypto.Cost_model.free
      ~leader_generates_datablocks:true ()
  in
  let t = Core.Runner.create (run_spec cfg) in
  Core.Runner.run_until t (Sim_time.s 12);
  let r = Core.Runner.report t in
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "liveness" true r.Core.Runner.all_confirmed;
  let leader = Core.Config.leader_of_view cfg 1 in
  checkb "leader produced datablocks" true
    (Core.Replica.datablocks_created (Core.Runner.replicas t).(leader) > 0)

(* -- Durable store: the sim-plane side of PR 8 --------------------------- *)

(* Wiring in-memory durable stores must not perturb the protocol at all:
   the sink is written to synchronously off the hot path and never read
   until a recovery. Pinned as a full-report byte comparison, like the
   metrics observation-only test above. *)
let test_mem_store_report_identical () =
  let bytes stores =
    let spec =
      Core.Runner.spec ~cfg:(small_cfg ()) ~seed:13L ~load:400.
        ~duration:(Sim_time.s 12) ~warmup:(Sim_time.s 2) ~load_until:(Sim_time.s 6)
        ~client_resend_timeout:(Sim_time.s 1) ?stores ()
    in
    Marshal.to_string (Core.Runner.run spec) []
  in
  let without = bytes None in
  let with_mem = bytes (Some (Array.init 4 (fun _ -> Core.Store.mem ()))) in
  checkb "mem-store report byte-identical to null-store" true
    (String.equal without with_mem)

(* The vote-safety heart of recovery: restart a replica after it emitted
   a prepare share (and before the notarization settles), then re-deliver
   the same proposal. The recovered replica must answer with the very
   same share — deterministic threshold shares make the repeat vote
   bit-identical, so no equivocation evidence can form against it. *)
let test_restart_resends_same_share () =
  let stores = Array.init 4 (fun _ -> Core.Store.mem ()) in
  let spec =
    Core.Runner.spec ~cfg:(small_cfg ()) ~seed:21L ~load:400.
      ~duration:(Sim_time.s 12) ~warmup:(Sim_time.s 1) ~load_until:(Sim_time.s 8)
      ~stores ()
  in
  let t = Core.Runner.create spec in
  let network = Core.Runner.network t in
  let victim = 0 in
  let leader = 1 in
  let votes : (int, Crypto.Threshold.share list) Hashtbl.t = Hashtbl.create 16 in
  let proposes : (int, Core.Msg.t) Hashtbl.t = Hashtbl.create 16 in
  Net.Network.set_fault_hook network (fun ~now:_ ~src ~dst msg ->
      (match msg with
      | Core.Msg.Prepare_vote { sn; share; _ } when src = victim ->
        Hashtbl.replace votes sn
          (share :: Option.value ~default:[] (Hashtbl.find_opt votes sn))
      | Core.Msg.Propose { block; _ } when dst = victim ->
        Hashtbl.replace proposes block.Core.Bftblock.sn msg
      | _ -> ());
      Net.Network.Pass);
  (* Advance in small steps until the victim has voted on a proposal we
     captured — mid-agreement, before that serial's checkpoint. *)
  let cursor = ref Sim_time.zero in
  let voted_sn () =
    Hashtbl.fold
      (fun sn _ acc ->
        if Hashtbl.mem proposes sn then Some sn else acc)
      votes None
  in
  while voted_sn () = None && Sim_time.compare !cursor (Sim_time.s 8) < 0 do
    cursor := Sim_time.(!cursor + ms 250);
    Core.Runner.run_until t !cursor
  done;
  let sn =
    match voted_sn () with
    | Some sn -> sn
    | None -> Alcotest.fail "victim never voted within 8 simulated seconds"
  in
  let shares_before = Hashtbl.find votes sn in
  (* Process restart: in-memory agreement state is gone, the store
     remains. *)
  Core.Runner.restart_replica t victim;
  Net.Network.send network ~src:leader ~dst:victim (Hashtbl.find proposes sn);
  cursor := Sim_time.(!cursor + s 1);
  Core.Runner.run_until t !cursor;
  let shares_after = Hashtbl.find votes sn in
  Net.Network.clear_fault_hook network;
  checkb "recovered replica re-voted" true
    (List.length shares_after > List.length shares_before);
  let raw = Crypto.Threshold.share_raw in
  List.iter
    (fun s ->
      checkb "every share for the serial is bit-identical" true
        (raw s = raw (List.hd shares_before)))
    shares_after;
  (* And the cluster as a whole never collected double-vote evidence. *)
  Array.iter
    (fun r ->
      checki "no equivocation evidence" 0
        (List.length (Core.Datablock_pool.equivocations (Core.Replica.pool r))))
    (Core.Runner.replicas t)

(* -- Checkpoint garbage collection: O(live state) snapshots ---------------- *)

(* A sink that hands each saved snapshot to [on_save] before storing it. *)
let observed_mem_store on_save =
  let sink = Core.Store.mem () in
  { sink with
    Core.Store.save =
      (fun snap ->
        on_save snap;
        sink.Core.Store.save snap) }

(* Every checkpoint snapshot carries the live window only: the 200th is
   no larger than the early ones, up to what that window can hold
   (k * bft_size executed links, n creator floors). Before the executed
   set was pruned, each checkpoint added its serials' links to every
   later snapshot. *)
let test_snapshot_size_flat () =
  let cfg = small_cfg ~k:4 () in
  let n = cfg.Core.Config.n and k = cfg.Core.Config.k and bft_size = cfg.Core.Config.bft_size in
  let sizes = ref [] in
  let stores =
    Array.init n (fun id ->
        if id = 0 then
          observed_mem_store (fun snap ->
              sizes := String.length (Core.Codec.encode_snapshot snap) :: !sizes)
        else Core.Store.mem ())
  in
  let t =
    Core.Runner.create
      (Core.Runner.spec ~cfg ~seed:17L ~load:400. ~duration:(Sim_time.s 120)
         ~warmup:(Sim_time.s 1) ~stores ())
  in
  let cursor = ref Sim_time.zero in
  while List.length !sizes < 200 && Sim_time.compare !cursor (Sim_time.s 120) < 0 do
    cursor := Sim_time.(!cursor + s 1);
    Core.Runner.run_until t !cursor
  done;
  let sizes = Array.of_list (List.rev !sizes) in
  checkb "200 checkpoints saved" true (Array.length sizes >= 200);
  let window_max lo hi =
    let m = ref 0 in
    for i = lo to hi do
      m := max !m sizes.(i)
    done;
    !m
  in
  (* an executed link costs 40 bytes in the old format (length-prefixed
     hash + serial), a floor 12 (creator, base, empty list) *)
  let bound = (k * bft_size * 40) + (n * 12) in
  let early = window_max 0 9 and late = window_max 190 199 in
  if late > early + bound then
    Alcotest.failf "snapshot grew: %d bytes by checkpoint 10, %d by 200 (bound +%d)" early
      late bound

(* Capture the first datablock [creator] multicasts to [dst]. *)
let capture_datablock network ~creator ~dst ~on_propose =
  let first = ref None in
  Net.Network.set_fault_hook network (fun ~now:_ ~src ~dst:d msg ->
      (match msg with
      | Core.Msg.Datablock_msg _ when src = creator && d = dst && !first = None ->
        first := Some msg
      | Core.Msg.Propose { block; _ } -> on_propose block
      | _ -> ());
      Net.Network.Pass);
  fun () ->
    match !first with
    | Some (Core.Msg.Datablock_msg db as msg) -> (msg, db)
    | _ -> Alcotest.fail "no datablock captured"

(* A copy of an executed datablock that arrives after the checkpoint
   pruned it — a late duplicate, or a Byzantine replay of the creator's
   signed bytes — is refused on arrival, so no leader can propose it a
   second time. An unsolicited fetch reply carrying it is refused too. *)
let test_replayed_datablock_executed_once () =
  let cfg = small_cfg () in
  let t =
    Core.Runner.create
      (Core.Runner.spec ~cfg ~seed:21L ~load:400. ~duration:(Sim_time.s 12)
         ~warmup:(Sim_time.s 1) ~load_until:(Sim_time.s 8) ())
  in
  let network = Core.Runner.network t in
  let leader = Core.Config.leader_of_view cfg 1 and creator = 2 in
  let linked_at = Hashtbl.create 256 in
  let captured =
    capture_datablock network ~creator ~dst:leader ~on_propose:(fun block ->
        List.iter
          (fun h ->
            let key = Crypto.Hash.to_hex h in
            let sns = Option.value ~default:[] (Hashtbl.find_opt linked_at key) in
            if not (List.mem block.Core.Bftblock.sn sns) then
              Hashtbl.replace linked_at key (block.Core.Bftblock.sn :: sns))
          block.Core.Bftblock.links)
  in
  Core.Runner.run_until t (Sim_time.s 4);
  let msg, db = captured () in
  let h = Core.Datablock.hash db in
  let in_pool r = Core.Datablock_pool.mem (Core.Replica.pool r) h in
  checkb "executed and pruned at the leader" false (in_pool (Core.Runner.replicas t).(leader));
  for dst = 0 to cfg.Core.Config.n - 1 do
    if dst <> creator then Net.Network.send network ~src:creator ~dst msg
  done;
  Net.Network.send network ~src:creator ~dst:leader (Core.Msg.Fetch_reply db);
  Core.Runner.run_until t (Sim_time.s 12);
  checki "linked by exactly one serial" 1
    (List.length (Option.value ~default:[] (Hashtbl.find_opt linked_at (Crypto.Hash.to_hex h))));
  Array.iter
    (fun r -> checkb "replay refused" false (in_pool r))
    (Core.Runner.replicas t);
  checkb "safety" true (Core.Driver.ledgers_agree (Core.Runner.driver t))

(* The executed floors are persisted: a replica restarted from a
   post-prune snapshot still refuses the replay. *)
let test_restart_keeps_executed_floors () =
  let cfg = small_cfg () in
  let victim = 0 and creator = 2 in
  let last_snap = ref None in
  let stores =
    Array.init cfg.Core.Config.n (fun id ->
        if id = victim then observed_mem_store (fun snap -> last_snap := Some snap)
        else Core.Store.mem ())
  in
  let t =
    Core.Runner.create
      (Core.Runner.spec ~cfg ~seed:21L ~load:400. ~duration:(Sim_time.s 12)
         ~warmup:(Sim_time.s 1) ~load_until:(Sim_time.s 8) ~stores ())
  in
  let network = Core.Runner.network t in
  let captured = capture_datablock network ~creator ~dst:victim ~on_propose:ignore in
  Core.Runner.run_until t (Sim_time.s 4);
  let msg, db = captured () in
  let counter = db.Core.Datablock.header.counter in
  let covered =
    match !last_snap with
    | None -> false
    | Some snap ->
      List.exists
        (fun (f : Core.Datablock_pool.floor) ->
          f.creator = creator && (counter <= f.base || List.mem counter f.above))
        snap.Core.Store.snap_executed_floors
  in
  checkb "the snapshot's floors cover the executed datablock" true covered;
  Core.Runner.restart_replica t victim;
  Net.Network.send network ~src:creator ~dst:victim msg;
  Core.Runner.run_until t (Sim_time.s 6);
  checkb "recovered replica refuses the replay" false
    (Core.Datablock_pool.mem
       (Core.Replica.pool (Core.Runner.replicas t).(victim))
       (Core.Datablock.hash db));
  checkb "safety" true (Core.Driver.ledgers_agree (Core.Runner.driver t))

(* Checkpoint quorums, timeout votes and view-change messages are
   pruned behind the watermark and the view: across many checkpoints and
   view changes their sizes stay flat instead of growing with the run.
   The datablock pool's arrival queue stays within twice its Pending
   entries plus 64 at every replica, also at those that never take from
   it (before the bound, a non-leader kept a slot for every datablock it
   ever accepted). *)
let test_bookkeeping_bounded () =
  let cfg = small_cfg ~view_timeout:(Sim_time.s 1) () in
  let t =
    Core.Runner.create
      (Core.Runner.spec ~cfg ~seed:5L ~load:400. ~duration:(Sim_time.s 200)
         ~warmup:(Sim_time.s 1) ~client_resend_timeout:(Sim_time.s 1) ())
  in
  let network = Core.Runner.network t in
  let replicas () = Core.Runner.replicas t in
  let top_view () = Array.fold_left (fun m r -> max m (Core.Replica.view r)) 1 (replicas ()) in
  let peak = Hashtbl.create 4 and queue_over = ref [] in
  let sample () =
    Array.iter
      (fun r ->
        let pool = Core.Replica.pool r in
        let queued = Core.Datablock_pool.queued pool
        and pending = Core.Datablock_pool.pending pool in
        if queued > (2 * pending) + 64 then queue_over := (queued, pending) :: !queue_over;
        List.iter
          (fun (name, size) ->
            let m = Option.value ~default:0 (Hashtbl.find_opt peak name) in
            Hashtbl.replace peak name (max m size))
          (Core.Replica.bookkeeping_sizes r))
      (replicas ())
  in
  let cursor = ref (Sim_time.s 2) in
  Core.Runner.run_until t !cursor;
  (* Take down the current leader until the others leave its view, then
     bring it back; each round forces one more view change. *)
  for _ = 1 to 8 do
    let v = top_view () in
    let leader = Core.Config.leader_of_view cfg v in
    Net.Network.set_down network leader true;
    let deadline = Sim_time.(!cursor + s 20) in
    while top_view () = v && Sim_time.compare !cursor deadline < 0 do
      cursor := Sim_time.(!cursor + ms 250);
      Core.Runner.run_until t !cursor;
      sample ()
    done;
    Net.Network.set_down network leader false;
    cursor := Sim_time.(!cursor + s 3);
    Core.Runner.run_until t !cursor;
    sample ()
  done;
  let lw = Core.Replica.low_watermark (replicas ()).(0) in
  checkb "eight view changes" true (top_view () >= 9);
  checkb "many checkpoints" true (lw >= 20 * cfg.Core.Config.checkpoint_interval);
  let peak name = Option.value ~default:0 (Hashtbl.find_opt peak name) in
  let k = cfg.Core.Config.k in
  checkb "executed links within the watermark window" true
    (peak "executed_links" <= k * cfg.Core.Config.bft_size);
  checkb "checkpoint quorums within the watermark window" true
    (peak "checkpoint_quorums" <= k / cfg.Core.Config.checkpoint_interval);
  checkb "timeout votes bounded" true (peak "timeout_votes" <= 3);
  checkb "view-change messages bounded" true (peak "vc_msgs" <= 3);
  (match !queue_over with
   | [] -> ()
   | (queued, pending) :: _ ->
     Alcotest.failf "pool queue %d slots for %d Pending datablocks (peak %d)" queued pending
       (peak "pool_queue"));
  checkb "safety" true (Core.Driver.ledgers_agree (Core.Runner.driver t))

(* A Confirmation's proof is checked before its serial is looked up.
   Garbage proofs for far-future serials leave the instance table as it
   was, and a garbage copy of a stashed valid Confirmation does not
   displace it: once the held proposal arrives, the victim confirms
   the serial from the stash. The confirmation is observed as the
   victim logs it (a mem store keeps the run as it is): the ledger
   forgets the block at the next checkpoint. *)
let test_garbage_confirmations_refused () =
  let cfg = small_cfg () in
  let leader = Core.Config.leader_of_view cfg 1 and victim = 2 in
  let confirmed = ref [] in
  let observed =
    let sink = Core.Store.mem () in
    { sink with
      Core.Store.log =
        (fun r ->
          (match r with
           | Core.Store.Confirmed_block b -> confirmed := b.Core.Bftblock.sn :: !confirmed
           | _ -> ());
          sink.Core.Store.log r) }
  in
  let stores = Array.init 4 (fun i -> if i = victim then observed else Core.Store.mem ()) in
  let t =
    Core.Runner.create
      (Core.Runner.spec ~cfg ~seed:31L ~load:400. ~duration:(Sim_time.s 12)
         ~warmup:(Sim_time.s 1) ~load_until:(Sim_time.s 3) ~stores ())
  in
  let network = Core.Runner.network t in
  let garbage = Crypto.Threshold.aggregate_of_raw 12345 in
  (* Hold back the first proposal the leader sends the victim after 1 s,
     and the Confirmation of its serial, so the test can deliver them in
     its own order. *)
  let target = ref None and held_propose = ref None and held_conf = ref None in
  Net.Network.set_fault_hook network (fun ~now ~src ~dst msg ->
      match msg with
      | Core.Msg.Propose { block; _ }
        when src = leader && dst = victim && !target = None
             && Sim_time.compare now (Sim_time.s 1) > 0 ->
        target := Some block.Core.Bftblock.sn;
        held_propose := Some msg;
        Net.Network.Drop
      | Core.Msg.Confirmation { sn; _ } when dst = victim && Some sn = !target ->
        held_conf := Some msg;
        Net.Network.Drop
      | _ -> Net.Network.Pass);
  let cursor = ref (Sim_time.s 1) in
  while !held_conf = None && Sim_time.compare !cursor (Sim_time.s 6) < 0 do
    cursor := Sim_time.(!cursor + ms 50);
    Core.Runner.run_until t !cursor
  done;
  Net.Network.clear_fault_hook network;
  let sn, view, notar_digest, conf =
    match !held_conf with
    | Some (Core.Msg.Confirmation { sn; view; notar_digest; _ } as conf) ->
      (sn, view, notar_digest, conf)
    | _ -> Alcotest.fail "no Confirmation captured for a held proposal"
  in
  let r = (Core.Runner.replicas t).(victim) in
  let step span =
    cursor := Sim_time.(!cursor + span);
    Core.Runner.run_until t !cursor
  in
  (* The valid Confirmation overtakes the proposal and is stashed; a
     garbage copy follows it. *)
  Net.Network.send network ~src:leader ~dst:victim conf;
  step (Sim_time.ms 20);
  Net.Network.send network ~src:leader ~dst:victim
    (Core.Msg.Confirmation { view; sn; notar_digest; proof = garbage });
  step (Sim_time.ms 20);
  checkb "not confirmed before the proposal" false (List.mem sn !confirmed);
  Net.Network.send network ~src:leader ~dst:victim (Option.get !held_propose);
  step (Sim_time.ms 50);
  checkb "the stashed valid Confirmation survives a garbage copy" true
    (List.mem sn !confirmed);
  (* Load has stopped: let the cluster settle, then flood. *)
  step (Sim_time.s 3);
  let instances () = List.assoc "instances" (Core.Replica.bookkeeping_sizes r) in
  let before = instances () in
  let far = Core.Replica.low_watermark r + 1_000_000 in
  for i = 0 to 999 do
    Net.Network.send network ~src:leader ~dst:victim
      (Core.Msg.Confirmation { view; sn = far + i; notar_digest; proof = garbage })
  done;
  step (Sim_time.ms 100);
  checki "1000 garbage Confirmations leave the instance table as it was" before
    (instances ());
  checkb "safety" true (Core.Driver.ledgers_agree (Core.Runner.driver t))

(* -- the proposal clock -------------------------------------------------- *)

(* tcpbench's batching at n = 4: α = 100, BFTsize 10, both timers 20 ms.
   The client ticks every 1 ms, so arrivals spread over the batching
   cycle as a Poisson client's do (the runner's 20 ms client tick would
   lock them to one phase of it). *)
type clock_run = {
  propose_wait_p50 : float;  (* seconds, submit -> first proposal *)
  confirm_p50 : float;       (* seconds, submit -> f+1 confirmation *)
  offered : int;
  confirmed : int;
  datablocks : int;
  clock_packs : int;
  idle_packs : int;
}

let proposal_timeout = Sim_time.ms 20

let clock_run ?(link = Net.Network.default_link) ~load () =
  let cfg =
    Core.Config.make ~n:4 ~alpha:100 ~bft_size:10 ~k:32 ~payload:64
      ~datablock_timeout:(Sim_time.ms 20) ~proposal_timeout ~cost:Crypto.Cost_model.free ()
  in
  let engine = Engine.create ~seed:5L () in
  let network = Net.Network.create engine ~n:4 ~meta:Core.Msg.meta ~link in
  let reg = Obs.Registry.create () in
  let waits = ref [] in
  let inject ~dst ~size k = Net.Network.inject network ~dst ~size ~category:"client-req" k in
  let driver =
    Core.Driver.create ~cfg ~key_rng:(Rng.split (Engine.rng engine))
      ~platform:(fun id ->
        Core.Platform.of_sim ~engine ~network ~id ~cores:cfg.Core.Config.cores ())
      ~now:(fun () -> Engine.now engine)
      ~schedule:(fun ~delay f -> ignore (Engine.schedule engine ~delay f))
      ~deliver:inject ~byzantine:[] ~resend:None ~trace:(Trace.create ~enabled:false ())
      ~obs:reg
      ~on_confirm:(fun ~now:_ ~proposed_at _ b ->
        Option.iter
          (fun p -> waits := Sim_time.to_sec Sim_time.(p - b.Workload.Request.born) :: !waits)
          proposed_at)
      ()
  in
  let replicas = Core.Driver.replicas driver in
  let gen =
    Workload.Generator.start engine ~rate:load ~payload:64 ~targets:[ 0; 2; 3 ] ~inject
      ~submit:(fun ~target b ->
        ignore (Core.Replica.submit replicas.(target) b : Core.Replica.admission))
      ~on_batch:(Core.Driver.offer driver) ~tick:(Sim_time.ms 1) ~until:(Sim_time.s 6) ()
  in
  Engine.run ~until:(Sim_time.s 7) engine;
  let waits = Array.of_list !waits in
  Array.sort compare waits;
  let counter name id =
    Obs.Counter.value (Obs.Registry.counter reg ~labels:[ ("replica", string_of_int id) ] name)
  in
  let total name = List.fold_left (fun a id -> a + counter name id) 0 [ 0; 1; 2; 3 ] in
  { propose_wait_p50 = waits.(Array.length waits / 2);
    confirm_p50 = Obs.Histogram.Snapshot.quantile (Core.Driver.latency driver) 0.5 /. 1e9;
    offered = Workload.Generator.offered gen;
    confirmed = Core.Driver.confirmed driver;
    datablocks = Array.fold_left (fun a r -> a + Core.Replica.datablocks_created r) 0 replicas;
    clock_packs = total "leopard_replica_clock_packs_total";
    idle_packs = total "leopard_replica_idle_packs_total" }

(* At 1000 req/s the age rule packs at a random phase of the leader's
   20 ms short-timer cycle and the datablock waits there for the next
   proposal: the median submit -> propose is 31.0 ms (1.55 cycles) before
   the clock. The clock drains the mempool once a cycle and lands a guard
   (1/8 cycle) before the proposal, so the median is half a cycle plus
   the guard plus the 1 ms link: 14.1 ms. *)
let test_clock_low_load_wait () =
  let r = clock_run ~load:1000. () in
  checki "all confirmed" r.offered r.confirmed;
  let p = Sim_time.to_sec proposal_timeout in
  if r.propose_wait_p50 >= 0.75 *. p then
    Alcotest.failf "submit -> propose p50 %.2f ms, want < 0.75 x %.0f ms"
      (r.propose_wait_p50 *. 1e3) (p *. 1e3);
  checkb "the clock packs" true (r.clock_packs > 0)

(* The capacity hazard: where α fills within a cycle, a clock pack would
   split datablocks the α rule fills. Datablocks per request, idle packs
   aside, must stay at the figures recorded before the clock (1200 for
   120000 requests with partial proposals; 3600 for 360000 with full
   ones). An idle pack sends early a datablock the other rules would
   have built anyway, minus its first batch: here the three start-up
   ones, one per packing replica. *)
let test_clock_keeps_alpha_batches () =
  List.iter
    (fun (load, offered_before, datablocks_before) ->
      let r = clock_run ~load () in
      checki "all confirmed" r.offered r.confirmed;
      checki (Printf.sprintf "no clock pack at %.0f req/s" load) 0 r.clock_packs;
      checki (Printf.sprintf "start-up idle packs at %.0f req/s" load) 3 r.idle_packs;
      let packed = r.datablocks - r.idle_packs in
      if packed * offered_before > datablocks_before * r.offered then
        Alcotest.failf "%.0f req/s: %d datablocks (%d idle packs) for %d requests, %d for %d before"
          load r.datablocks r.idle_packs r.offered datablocks_before offered_before)
    [ (20_000., 120_000, 1200); (60_000., 360_000, 3600) ]

(* At 50 req/s every request reaches an idle replica: each is packed
   alone at its submit instant, where before it waited the whole 20 ms
   age timeout (confirm p50 46.5 ms, one datablock per request). Two of
   each tick's three datablocks still wait one short-timer cycle at the
   leader. *)
let test_clock_light_load_idle_pack () =
  let r = clock_run ~load:50. () in
  checki "all confirmed" r.offered r.confirmed;
  checki "one datablock per request" r.offered r.datablocks;
  checki "every datablock an idle pack" r.datablocks r.idle_packs;
  Alcotest.(check string) "confirm p50" "26.5 ms" (Printf.sprintf "%.1f ms" (r.confirm_p50 *. 1e3))

(* A 10 ms one-way link makes the vote -> notarization time at least
   20 ms, past 7/8 of the cycle: there is no time left to aim at, so no
   clock pack is armed, and neither median may exceed what it was before
   the clock (40.04 ms to propose, 88.75 ms to confirm). *)
let test_clock_off_on_slow_link () =
  let link = { Net.Network.default_link with prop_delay = Sim_time.ms 10 } in
  let r = clock_run ~link ~load:1000. () in
  checki "all confirmed" r.offered r.confirmed;
  checki "no clock pack" 0 r.clock_packs;
  checkb "propose p50 not above 40.04 ms" true (r.propose_wait_p50 <= 0.040041);
  checkb "confirm p50 not above 88.75 ms" true (r.confirm_p50 <= 0.088754)

(* -- One-shot deadlines ----------------------------------------------------------- *)

(* A bare n=4 cluster: no client, no driver; the test submits requests
   itself. Every replica timer is counted, and every multicast is
   recorded at its send instant (newest first), as is every execution.
   [strategy] is replica 0's. *)
type bare = {
  engine : Engine.t;
  replicas : Core.Replica.t array;
  timers : int ref;
  sent : (Sim_time.t * Net.Node_id.t * Core.Msg.t) list ref;
  executed : (Sim_time.t * Net.Node_id.t) list ref;
  reg : Obs.Registry.t;
}

let bare_cluster ?(strategy = Core.Byzantine.Honest) cfg =
  let engine = Engine.create ~seed:5L () in
  let network = Net.Network.create engine ~n:4 ~meta:Core.Msg.meta ~link:Net.Network.default_link in
  let rng = Rng.split (Engine.rng engine) in
  let keys = Array.init 4 (fun _ -> Crypto.Signature.keygen rng) in
  let tsetup, tkeys = Crypto.Threshold.keygen rng ~threshold:(2 * cfg.Core.Config.f) ~parties:4 in
  let timers = ref 0 and sent = ref [] and executed = ref [] in
  let platform id =
    let p = Core.Platform.of_sim ~engine ~network ~id ~cores:cfg.Core.Config.cores () in
    { p with
      Core.Platform.schedule =
        (fun ~delay f ->
          incr timers;
          p.Core.Platform.schedule ~delay f);
      schedule_at =
        (fun ~at f ->
          incr timers;
          p.Core.Platform.schedule_at ~at f);
      multicast =
        (fun msg ->
          sent := (Engine.now engine, id, msg) :: !sent;
          p.Core.Platform.multicast msg) }
  in
  let hooks =
    { Core.Replica.no_hooks with
      on_execute = (fun ~id ~sn:_ _ _ -> executed := (Engine.now engine, id) :: !executed) }
  in
  let reg = Obs.Registry.create () in
  let replicas =
    Array.init 4 (fun id ->
        let strategy = if id = 0 then strategy else Core.Byzantine.Honest in
        Core.Replica.create ~platform:(platform id) ~cfg ~id ~sk:(snd keys.(id))
          ~pks:(Array.map fst keys) ~tsetup ~tkey:tkeys.(id) ~obs:reg ~strategy ~hooks ())
  in
  Array.iter Core.Replica.start replicas;
  { engine; replicas; timers; sent; executed; reg }

let submit_at c ~at ~dst ?resend id =
  ignore
    (Engine.schedule_at c.engine ~at (fun () ->
         let b = Workload.Request.make ~id ~count:1 ~size_each:64 ~born:at ?resend () in
         ignore (Core.Replica.submit c.replicas.(dst) b : Core.Replica.admission)))

(* -- The idle pack ----------------------------------------------------------- *)

(* Replica 0's datablocks as (send instant ms, request ids), in send
   order, and its idle-pack count. *)
let packs_of c =
  List.rev !(c.sent)
  |> List.filter_map (fun (at, src, msg) ->
         match msg with
         | Core.Msg.Datablock_msg db when src = 0 ->
           Some
             ( Int64.to_int (Int64.div at 1_000_000L),
               List.map (fun b -> b.Workload.Request.id) db.Core.Datablock.batches )
         | _ -> None)

let idle_packs c id =
  Obs.Counter.value
    (Obs.Registry.counter c.reg ~labels:[ ("replica", string_of_int id) ]
       "leopard_replica_idle_packs_total")

let packs = Alcotest.(list (pair int (list int)))

(* α = 3, T = 200 ms, one-request batches; the leader is replica 1. *)
let idle_cfg ?(datablock_timeout = Sim_time.ms 200) ?leader_generates_datablocks () =
  Core.Config.make ~n:4 ~alpha:3 ~bft_size:2 ~k:32 ~payload:64 ~datablock_timeout
    ~proposal_timeout:(Sim_time.ms 300) ?leader_generates_datablocks
    ~cost:Crypto.Cost_model.free ()

let run_idle ?strategy cfg submits =
  let c = bare_cluster ?strategy cfg in
  List.iter (fun (ms, dst, id) -> submit_at c ~at:(Sim_time.ms ms) ~dst id) submits;
  Engine.run ~until:(Sim_time.s 2) c.engine;
  c

(* A request that reaches an idle replica leaves at its submit instant;
   one that follows it leaves where the age rule packed both before:
   at the first one's birth + T, not at its own. *)
let test_idle_pack_follower () =
  let c = run_idle (idle_cfg ()) [ (10, 0, 1); (50, 0, 2) ] in
  Alcotest.check packs "replica 0's datablocks" [ (10, [ 1 ]); (210, [ 2 ]) ] (packs_of c);
  checki "one idle pack" 1 (idle_packs c 0)

(* The idle batch counts toward α: the α rule fires at the third
   request's arrival, as it did with the first still in the mempool.
   A request 70 ms later finds the mempool empty and the rate limit
   open, but a datablock left within T: it waits for the age rule. *)
let test_idle_pack_alpha_phase () =
  let c = run_idle (idle_cfg ()) [ (10, 0, 1); (20, 0, 2); (30, 0, 3); (100, 0, 4) ] in
  Alcotest.check packs "replica 0's datablocks"
    [ (10, [ 1 ]); (30, [ 2; 3 ]); (300, [ 4 ]) ]
    (packs_of c);
  checki "one idle pack" 1 (idle_packs c 0)

(* The copy closes at birth + T even with nothing to pack, and the rate
   limit reopens at birth + 2T, as before: a request at 300 ms finds it
   closed and leaves by the age rule at 500 ms (which closes it until
   700 ms), and one at 800 ms is idle packed again. *)
let test_idle_pack_rate_limit () =
  let c = run_idle (idle_cfg ()) [ (10, 0, 1); (300, 0, 2); (800, 0, 3) ] in
  Alcotest.check packs "replica 0's datablocks"
    [ (10, [ 1 ]); (500, [ 2 ]); (800, [ 3 ]) ]
    (packs_of c);
  checki "two idle packs" 2 (idle_packs c 0)

(* No idle pack for a leader that packs, a censor, an equivocator, or
   with the age rule off. *)
let test_idle_pack_exclusions () =
  let none name c = checki (name ^ ": no idle pack") 0 (idle_packs c 0 + idle_packs c 1) in
  let c = run_idle (idle_cfg ~leader_generates_datablocks:true ()) [ (10, 1, 1) ] in
  none "leader" c;
  let leader_packs =
    List.filter_map
      (fun (at, src, msg) ->
        match msg with
        | Core.Msg.Datablock_msg _ when src = 1 -> Some (Int64.to_int (Int64.div at 1_000_000L))
        | _ -> None)
      !(c.sent)
  in
  Alcotest.(check (list int)) "the leader packs by the age rule" [ 210 ] leader_packs;
  let c = run_idle ~strategy:Core.Byzantine.Censor (idle_cfg ()) [ (10, 0, 1) ] in
  none "censor" c;
  Alcotest.check packs "the censor packs nothing" [] (packs_of c);
  let c =
    run_idle ~strategy:Core.Byzantine.Equivocate_datablocks (idle_cfg ()) [ (10, 0, 1) ]
  in
  none "equivocator" c;
  checki "the equivocator packs nothing" 0 (Core.Replica.datablocks_created c.replicas.(0));
  let c = run_idle (idle_cfg ~datablock_timeout:0L ()) [ (10, 0, 1); (20, 0, 2) ] in
  none "T = 0" c;
  Alcotest.check packs "below α nothing leaves with T = 0" [] (packs_of c)

(* Every timer is armed by the state change that creates its deadline:
   with both batching timeouts set and no request, nothing is. *)
let test_idle_arms_nothing () =
  let c = bare_cluster (small_cfg ()) in
  Engine.run ~until:(Sim_time.s 5) c.engine;
  let events = Engine.events_fired c.engine in
  Engine.run ~until:(Sim_time.s 50) c.engine;
  checki "no replica timer" 0 !(c.timers);
  checki "no engine event after 5 s" events (Engine.events_fired c.engine)

(* §6.2.1's short timer after a full proposal. With alpha = 1 each
   request is its own datablock. The leader (replica 1) proposes the
   first one alone at 10 ms, which closes its rate limit until 110 ms;
   three at 20 ms make a full proposal; one straggler at 30 ms finds the
   rate limit closed and nothing follows it. It must leave when the rate
   limit reopens, within [proposal_timeout] of its arrival. *)
let test_straggler_after_full_proposal () =
  let proposal_timeout = Sim_time.ms 100 in
  let cfg =
    Core.Config.make ~n:4 ~alpha:1 ~bft_size:3 ~k:32 ~payload:64 ~datablock_timeout:proposal_timeout
      ~proposal_timeout ~cost:Crypto.Cost_model.free ()
  in
  let c = bare_cluster cfg in
  submit_at c ~at:(Sim_time.ms 10) ~dst:0 1;
  List.iteri (fun i dst -> submit_at c ~at:(Sim_time.ms 20) ~dst (2 + i)) [ 0; 2; 3 ];
  submit_at c ~at:(Sim_time.ms 30) ~dst:2 5;
  Engine.run ~until:(Sim_time.s 1) c.engine;
  let proposals =
    List.rev !(c.sent)
    |> List.filter_map (fun (at, src, msg) ->
           match msg with
           | Core.Msg.Propose { block; _ } when src = 1 ->
             Some (at, List.length block.Core.Bftblock.links)
           | _ -> None)
  in
  Alcotest.(check (list int)) "links per proposal" [ 1; 3; 1 ] (List.map snd proposals);
  let at, _ = List.nth proposals 2 in
  if Sim_time.compare at Sim_time.(ms 30 + proposal_timeout) > 0 then
    Alcotest.failf "straggler proposed at %a, after 30 ms + proposal_timeout" Sim_time.pp at

(* §4.3's trigger (1): the leader (which packs nothing) holds a re-sent
   request, so nothing confirms it, and with both batching timeouts 0
   nothing else is scheduled. Its timeout vote leaves at the later of
   the watch instant + view timeout and the grace end (the view's start
   or its last execution, + view timeout). *)
let test_watchdog_deadline () =
  let cfg =
    Core.Config.make ~n:4 ~alpha:1 ~bft_size:1 ~k:32 ~payload:64 ~view_timeout:(Sim_time.s 1)
      ~cost:Crypto.Cost_model.free ()
  in
  let vote_at ?execution_at ~watch_at () =
    let c = bare_cluster cfg in
    submit_at c ~at:watch_at ~dst:1 ~resend:true 1;
    Option.iter (fun at -> submit_at c ~at ~dst:0 2) execution_at;
    Engine.run ~until:(Sim_time.s 5) c.engine;
    let votes =
      List.filter_map
        (fun (at, src, msg) ->
          match msg with Core.Msg.Timeout _ -> Some (at, src) | _ -> None)
        !(c.sent)
    in
    (match votes with
     | [ (_, 1) ] -> ()
     | _ -> Alcotest.failf "%d timeout votes, want one from the leader" (List.length votes));
    let executed_at =
      List.fold_left
        (fun acc (at, id) -> if id = 1 then Sim_time.max acc at else acc)
        Sim_time.zero !(c.executed)
    in
    (fst (List.hd votes), executed_at)
  in
  let vt = cfg.Core.Config.view_timeout in
  let vote, _ = vote_at ~watch_at:(Sim_time.ms 300) () in
  Alcotest.(check int64) "watched at 300 ms: watch + view timeout" (Sim_time.ms 1300) vote;
  let vote, executed_at = vote_at ~watch_at:(Sim_time.ms 100) ~execution_at:(Sim_time.ms 500) () in
  checkb "the leader executed after the watch" true
    (Sim_time.compare executed_at (Sim_time.ms 500) > 0);
  Alcotest.(check int64) "execution at ~500 ms: grace end" Sim_time.(executed_at + vt) vote

(* The Rival entries of an equivocating creator are dropped once a
   checkpoint covers their slots: with the load running the whole time,
   replica 1's pool stays within twice the watermark window's links,
   whatever the run's length. *)
let test_rival_entries_bounded () =
  let cfg = small_cfg () in
  let size_after d =
    let t =
      Core.Runner.create
        (run_spec ~duration:d ~load_until:d
           ~byzantine:[ (0, Core.Byzantine.Equivocate_datablocks) ]
           ~client_resend_timeout:(Sim_time.s 1) cfg)
    in
    Core.Runner.run_until t (Sim_time.s d);
    checkb "safety" true (Core.Runner.report t).Core.Runner.safety_ok;
    Core.Datablock_pool.size (Core.Replica.pool (Core.Runner.replicas t).(1))
  in
  let window = cfg.Core.Config.bft_size * cfg.Core.Config.k in
  let s12 = size_after 12 and s48 = size_after 48 in
  if s48 > 2 * window || s48 - s12 > window then
    Alcotest.failf "pool size %d at 12 s, %d at 48 s (window %d links)" s12 s48 window

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "leopard"
    [ ( "honest",
        [ Alcotest.test_case "liveness & safety" `Quick test_honest_liveness_and_safety;
          Alcotest.test_case "larger cluster" `Slow test_honest_larger_cluster;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
          Alcotest.test_case "byte-identical reports" `Quick test_deterministic_report_bytes;
          Alcotest.test_case "golden seed-13 summary" `Quick test_golden_seed13_summary;
          Alcotest.test_case "metrics observation-only (byte-identical)" `Quick
            test_metrics_do_not_perturb_report;
          Alcotest.test_case "latency breakdown" `Quick test_latency_breakdown_components;
          Alcotest.test_case "bandwidth shape" `Quick test_bandwidth_accounting_shape ] );
      ( "silent faults",
        [ Alcotest.test_case "f silent live" `Quick test_silent_f_still_live;
          Alcotest.test_case "f+1 silent stalls safely" `Quick test_too_many_silent_stalls ] );
      ( "equivocation",
        [ Alcotest.test_case "detected & contained" `Quick test_equivocator_detected_and_contained;
          Alcotest.test_case "punished (kicked out)" `Quick test_equivocator_punished;
          Alcotest.test_case "rival entries bounded over run length" `Quick
            test_rival_entries_bounded;
          Alcotest.test_case "new leader never links a rival" `Quick
            test_new_leader_never_links_a_rival ] );
      ( "extensions",
        [ Alcotest.test_case "client fanout s=3 counts once" `Quick
            test_client_fanout_counts_once;
          Alcotest.test_case "pure Algorithm 1 packing" `Quick test_pure_algorithm1_packing;
          Alcotest.test_case "lagging replica catches up" `Quick
            test_lagging_replica_catches_up;
          Alcotest.test_case "optimistic responsiveness" `Quick
            test_optimistic_responsiveness;
          Alcotest.test_case "single channel still correct" `Quick
            test_single_channel_still_correct;
          Alcotest.test_case "leader-generates still correct" `Quick
            test_leader_generates_datablocks_still_correct ] );
      ( "censorship",
        [ Alcotest.test_case "defeated by re-send" `Quick test_censor_defeated_by_resend;
          Alcotest.test_case "without re-send loses" `Quick test_censor_without_resend_loses ] );
      ( "view change",
        [ Alcotest.test_case "leader failure" `Quick test_view_change_on_leader_failure;
          Alcotest.test_case "crash strategy" `Quick test_view_change_crash_strategy;
          Alcotest.test_case "two consecutive failures" `Slow test_two_consecutive_leader_failures ] );
      ( "partial synchrony",
        [ Alcotest.test_case "pre-GST reordering" `Quick test_pre_gst_reordering_safe_and_live ]
        @ qsuite [ prop_safety_under_random_faults ] );
      ( "durable store",
        [ Alcotest.test_case "mem store keeps reports byte-identical" `Quick
            test_mem_store_report_identical;
          Alcotest.test_case "restart re-sends the same prepare share" `Quick
            test_restart_resends_same_share;
          Alcotest.test_case "restart keeps executed floors" `Quick
            test_restart_keeps_executed_floors ] );
      ( "checkpoint gc",
        [ Alcotest.test_case "snapshot size flat over 200 checkpoints" `Quick
            test_snapshot_size_flat;
          Alcotest.test_case "replayed datablock executed once" `Quick
            test_replayed_datablock_executed_once;
          Alcotest.test_case "bookkeeping tables bounded" `Quick test_bookkeeping_bounded;
          Alcotest.test_case "garbage confirmations refused" `Quick
            test_garbage_confirmations_refused ] );
      ( "internals",
        [ Alcotest.test_case "watermarks bound parallelism" `Quick test_watermarks_bound_parallelism;
          Alcotest.test_case "checkpoints advance lw" `Quick test_checkpoints_advance_watermark;
          Alcotest.test_case "state hash agreement" `Quick test_state_hash_agreement;
          Alcotest.test_case "notar cache bounded" `Quick test_notar_cache_bounded;
          Alcotest.test_case "leader excluded from datablocks" `Quick
            test_datablock_generation_excludes_leader ] );
      ( "proposal clock",
        [ Alcotest.test_case "low-load wait under 3/4 cycle" `Quick test_clock_low_load_wait;
          Alcotest.test_case "alpha batches kept" `Quick test_clock_keeps_alpha_batches;
          Alcotest.test_case "off on a slow link" `Quick test_clock_off_on_slow_link;
          Alcotest.test_case "light load: idle packs" `Quick test_clock_light_load_idle_pack ] );
      ( "deadlines",
        [ Alcotest.test_case "idle cluster arms nothing" `Quick test_idle_arms_nothing;
          Alcotest.test_case "straggler after a full proposal" `Quick
            test_straggler_after_full_proposal;
          Alcotest.test_case "watchdog fires at its deadline" `Quick test_watchdog_deadline ] );
      ( "idle pack",
        [ Alcotest.test_case "follower keeps its pack time" `Quick test_idle_pack_follower;
          Alcotest.test_case "alpha phase holds" `Quick test_idle_pack_alpha_phase;
          Alcotest.test_case "rate limit as before" `Quick test_idle_pack_rate_limit;
          Alcotest.test_case "no idle pack for leader, censor, equivocator or T = 0" `Quick
            test_idle_pack_exclusions ] ) ]

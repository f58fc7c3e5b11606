(* Overload-control plane: mempool admission, replica verdicts, the
   capped leader-handover flush, the transport's kind-aware drop policy,
   and an end-to-end 10x-overload acceptance run on the TCP cluster.

   The standing invariants under test: a bounded mempool never exceeds
   its cap, every refused submit is rendered as a typed verdict (never a
   raise) and accounted, and under egress saturation consensus-critical
   frames are never dropped before bulk datablock frames. *)

open Sim

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let req ?(id = 0) ?(count = 4) ?(born = Sim_time.zero) () =
  Workload.Request.make ~id ~count ~size_each:64 ~born ()

(* -- mempool units ------------------------------------------------------- *)

let test_mempool_admission () =
  let mp = Core.Mempool.create ~cap:10 () in
  checki "cap recorded" 10 (Core.Mempool.cap mp);
  checkb "under cap admits" true
    (Core.Mempool.try_add mp (req ~id:1 ()) = Core.Mempool.Admitted);
  checkb "still under cap admits" true
    (Core.Mempool.try_add mp (req ~id:2 ()) = Core.Mempool.Admitted);
  checki "pending counts requests" 8 (Core.Mempool.pending_requests mp);
  checkb "overshoot rejected" true
    (Core.Mempool.try_add mp (req ~id:3 ())
     = Core.Mempool.Rejected Core.Mempool.Mempool_full);
  checki "rejected batch leaves pending unchanged" 8
    (Core.Mempool.pending_requests mp);
  (* Exactly reaching the cap is still admitted. *)
  checkb "at-cap admits" true
    (Core.Mempool.try_add mp (req ~id:4 ~count:2 ()) = Core.Mempool.Admitted);
  checki "at cap" 10 (Core.Mempool.pending_requests mp);
  checkb "one past cap rejected" true
    (Core.Mempool.try_add mp (req ~id:5 ~count:1 ())
     = Core.Mempool.Rejected Core.Mempool.Mempool_full);
  (* The unconditional path (internal re-enqueue) bypasses admission. *)
  Core.Mempool.add mp (req ~id:6 ~count:1 ());
  checki "unconditional add bypasses the cap" 11
    (Core.Mempool.pending_requests mp);
  checkb "non-positive take takes nothing" true
    (Core.Mempool.take mp ~target:0 = [])

let test_mempool_unbounded_default () =
  let mp = Core.Mempool.create () in
  checki "no cap" 0 (Core.Mempool.cap mp);
  for i = 1 to 1000 do
    checkb "always admitted" true
      (Core.Mempool.try_add mp (req ~id:i ()) = Core.Mempool.Admitted)
  done;
  checki "all pending" 4000 (Core.Mempool.pending_requests mp)

(* -- replica admission verdicts ------------------------------------------ *)

let capped_cfg ?(mempool_cap = 20) () =
  Core.Config.make ~n:4 ~alpha:10 ~bft_size:2 ~k:16 ~payload:64
    ~datablock_timeout:(Sim_time.ms 200) ~proposal_timeout:(Sim_time.ms 300)
    ~view_timeout:(Sim_time.s 2) ~fetch_grace:(Sim_time.ms 200)
    ~cost:Crypto.Cost_model.free ~mempool_cap ()

let contains text sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
  in
  go 0

let test_replica_admission () =
  let reg = Obs.Registry.create () in
  let spec =
    Core.Runner.spec ~cfg:(capped_cfg ()) ~seed:42L ~load:0.1
      ~duration:(Sim_time.s 1) ~warmup:Sim_time.zero ~obs:reg ()
  in
  let t = Core.Runner.create spec in
  let replicas = Core.Runner.replicas t in
  (* The view-1 leader does not pack (it generates no datablocks), so
     submissions accumulate against the admission bound. *)
  let leader = replicas.(1) in
  checkb "replica 1 leads view 1" true (Core.Replica.is_leader leader);
  for i = 1 to 5 do
    checkb "admitted under the cap" true
      (Core.Replica.submit leader (req ~id:i ()) = Core.Replica.Admitted)
  done;
  checki "pending at the cap" 20 (Core.Replica.mempool_pending leader);
  checkb "past the cap: typed rejection" true
    (Core.Replica.submit leader (req ~id:6 ())
     = Core.Replica.Rejected Core.Replica.Mempool_full);
  checki "pending unchanged by the rejection" 20
    (Core.Replica.mempool_pending leader);
  checki "rejected requests counted" 4 (Core.Replica.submits_rejected leader);
  checkb "rejection visible in metrics" true
    (contains (Obs.Registry.expose reg) "leopard_replica_submit_rejected_total");
  (* A halted replica refuses with Inactive — crash churn, not
     overload, so it does not count toward admission rejections. *)
  let other = replicas.(0) in
  Core.Replica.halt other;
  checkb "halted replica refuses" true
    (Core.Replica.submit other (req ~id:7 ())
     = Core.Replica.Rejected Core.Replica.Inactive);
  checki "inactive refusal is not an admission rejection" 0
    (Core.Replica.submits_rejected other)

(* -- leader handover under overload (sim) -------------------------------- *)

(* The capped-flush satellite, end to end: a cluster driven well past its
   admission bound loses its leader mid-run. The view change must
   complete promptly (the promoted replica flushes at most [cap] pending
   requests into the new view instead of its whole backlog), commits
   must resume, and no mempool may ever exceed the bound. *)
let test_leader_handover_under_overload () =
  let cap = 64 in
  let spec =
    Core.Runner.spec
      ~cfg:(capped_cfg ~mempool_cap:cap ())
      ~seed:42L ~load:4000. ~duration:(Sim_time.s 12) ~warmup:(Sim_time.s 2)
      ~load_until:(Sim_time.s 6) ~stop_leader_at:(Sim_time.s 3)
      ~client_resend_timeout:(Sim_time.s 1) ()
  in
  let t = Core.Runner.create spec in
  Core.Runner.run_until t (Sim_time.s 12);
  let r = Core.Runner.report t in
  checkb "safety" true r.Core.Runner.safety_ok;
  checkb "the new view was entered" true (r.Core.Runner.final_view >= 2);
  checkb "commits resumed after the handover" true
    (r.Core.Runner.confirmed > 0 && r.Core.Runner.executed_blocks > 0);
  Array.iter
    (fun rep ->
      checkb "mempool bounded throughout" true
        (Core.Replica.mempool_pending rep <= cap))
    (Core.Runner.replicas t)

(* -- transport: kind-aware drop policy ----------------------------------- *)

let closed_loopback_port () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let addr = Unix.getsockname sock in
  Unix.close sock;
  (* Bound once, then closed: nothing listens there, so dialed frames
     stay queued (the test never runs the loop, so no flush either). *)
  match addr with
  | Unix.ADDR_INET (host, port) -> Unix.ADDR_INET (host, port)
  | _ -> Alcotest.fail "expected an inet loopback address"

let test_conn_kind_aware_drops () =
  let rng = Sim.Rng.create 2026L in
  let _pk, sk = Crypto.Signature.keygen rng in
  let low_msg =
    Core.Msg.Datablock_msg
      (Core.Datablock.create ~sk ~creator:0 ~counter:1 ~now:Sim_time.zero
         [ req ~id:1 () ])
  in
  let high_msg =
    Core.Msg.Timeout { view = 3; sender = 0; signature = Crypto.Signature.sign sk "t" }
  in
  let hwm = 1024 in
  let loop = Transport.Loop.create () in
  let conn =
    Transport.Conn.create ~loop ~id:0 ~outbuf_hwm:hwm
      ~on_msg:(fun ~src:_ _ -> ()) ()
  in
  Fun.protect ~finally:(fun () -> Transport.Conn.close conn)
    (fun () ->
      Transport.Conn.set_peer_addr conn 1 (closed_loopback_port ());
      let dropped_bp () = Transport.Conn.dropped_backpressure conn in
      let by_kind k = Transport.Conn.dropped_by_kind conn k in
      let sent = ref 0 in
      (* Fill with bulk frames until the HWM refuses one. *)
      let rounds = ref 0 in
      while dropped_bp () = 0 && !rounds < 300 do
        incr rounds;
        incr sent;
        Transport.Conn.send conn ~dst:1 low_msg
      done;
      checkb "bulk frames hit the HWM" true (dropped_bp () > 0);
      checki "the drop is attributed to K_datablock" (dropped_bp ())
        (by_kind Core.Msg.K_datablock);
      checkb "bulk admission stops at the HWM" true
        (Transport.Conn.pressure conn <= 1.0);
      (* Consensus-critical frames still get through: the headroom above
         the HWM is reserved for them. *)
      let bp_before = dropped_bp () in
      Transport.Conn.send conn ~dst:1 high_msg;
      incr sent;
      checki "consensus frame admitted above the HWM" bp_before (dropped_bp ());
      checki "no consensus drops yet" 0 (by_kind Core.Msg.K_timeout);
      (* ...but the headroom is bounded: past 2x the HWM even consensus
         frames are refused, so a dead peer cannot balloon the sender. *)
      rounds := 0;
      while by_kind Core.Msg.K_timeout = 0 && !rounds < 300 do
        incr rounds;
        incr sent;
        Transport.Conn.send conn ~dst:1 high_msg
      done;
      checkb "consensus admission stops at the headroom bound" true
        (by_kind Core.Msg.K_timeout > 0);
      checkb "queue saturated past the bulk threshold" true
        (Transport.Conn.pressure conn >= 1.0);
      checkb "but never past the consensus headroom" true
        (Transport.Conn.pressure conn <= 2.0);
      (* Bulk frames are still refused at their lower threshold. *)
      let db_before = by_kind Core.Msg.K_datablock in
      Transport.Conn.send conn ~dst:1 low_msg;
      incr sent;
      checki "bulk still refused first" (db_before + 1)
        (by_kind Core.Msg.K_datablock);
      (* A peer with no address is a distinct cause. *)
      Transport.Conn.send conn ~dst:2 high_msg;
      checki "no-addr refusal split out" 1 (Transport.Conn.dropped_no_addr conn);
      (* Downing the node discards the queue under its own reason: crash
         churn must never read as backpressure overload. *)
      let queued = !sent - dropped_bp () in
      let bp_at_down = dropped_bp () in
      Transport.Conn.set_down conn true;
      checki "dead-window losses counted apart" queued
        (Transport.Conn.dropped_disconnected conn);
      checki "backpressure counter untouched by the crash" bp_at_down
        (dropped_bp ());
      checki "total is the sum of the split causes" (Transport.Conn.dropped conn)
        (dropped_bp () + Transport.Conn.dropped_no_addr conn
        + Transport.Conn.dropped_disconnected conn))

(* -- TCP acceptance: n=16 at ~10x sustained capacity --------------------- *)

let consensus_kinds =
  [ Core.Msg.K_propose; Core.Msg.K_prepare_vote; Core.Msg.K_notarization;
    Core.Msg.K_commit_vote; Core.Msg.K_confirmation; Core.Msg.K_checkpoint_vote;
    Core.Msg.K_checkpoint_cert; Core.Msg.K_timeout; Core.Msg.K_view_change;
    Core.Msg.K_new_view; Core.Msg.K_fetch ]

let test_tcp_overload_acceptance () =
  let cap = 256 in
  let cfg =
    Core.Config.make ~n:16 ~alpha:10 ~bft_size:2 ~k:16 ~payload:64
      ~datablock_timeout:(Sim_time.ms 20) ~proposal_timeout:(Sim_time.ms 30)
      ~view_timeout:(Sim_time.s 5) ~fetch_grace:(Sim_time.ms 200)
      ~cost:Crypto.Cost_model.free ~mempool_cap:cap ()
  in
  let cl =
    Transport.Cluster.create ~cfg ~load:20000. ~outbuf_hwm:(128 * 1024) ()
  in
  Fun.protect ~finally:(fun () -> Transport.Cluster.close cl)
    (fun () ->
      let loop = Transport.Cluster.loop cl in
      let replicas = Transport.Cluster.replicas cl in
      let cap_violation = ref None in
      let check_caps () =
        Array.iteri
          (fun id rep ->
            let p = Core.Replica.mempool_pending rep in
            if p > cap && !cap_violation = None then cap_violation := Some (id, p))
          replicas
      in
      Transport.Cluster.start_load cl;
      let deadline = Transport.Loop.now_ns loop + Int64.to_int (Sim_time.s 15) in
      Transport.Cluster.run_while cl (fun cl ->
          check_caps ();
          Transport.Cluster.confirmed cl < 300
          && Transport.Loop.now_ns loop < deadline);
      let c1 = Transport.Cluster.confirmed cl in
      checkb "commits flow under 10x load" true (c1 > 0);
      (* Sustained overload: confirmations must still strictly advance. *)
      let go_until = Transport.Loop.now_ns loop + Int64.to_int (Sim_time.s 2) in
      Transport.Cluster.run_while cl (fun cl ->
          check_caps ();
          ignore (cl : Transport.Cluster.t);
          Transport.Loop.now_ns loop < go_until);
      let c2 = Transport.Cluster.confirmed cl in
      checkb "confirmed strictly increases under sustained overload" true (c2 > c1);
      Transport.Cluster.stop_load cl;
      (match !cap_violation with
       | None -> ()
       | Some (id, p) ->
         Alcotest.failf "replica %d mempool reached %d > cap %d" id p cap);
      (* Every rejection the client saw is accounted at some replica (no
         replica is ever down here, so the counts must agree exactly). *)
      let replica_rejected =
        Array.fold_left
          (fun acc rep -> acc + Core.Replica.submits_rejected rep)
          0 replicas
      in
      checki "client and replica rejection accounting agree" replica_rejected
        (Transport.Cluster.rejected cl);
      (* Kind-aware policy under real overload: whatever backpressure
         drops occurred, none hit a consensus-critical kind — the bulk
         datablock plane absorbs all of them. *)
      let nodes = Transport.Cluster.nodes cl in
      Array.iter
        (fun node ->
          let conn = Transport.Runtime.conn node in
          List.iter
            (fun k ->
              checki
                ("no backpressure drops on " ^ Core.Msg.kind_name k)
                0
                (Transport.Conn.dropped_by_kind conn k))
            consensus_kinds)
        nodes;
      (* Deterministic exercise of the admission path on this plane: one
         burst bigger than the bound must be refused, typed, counted, and
         must leave the pool untouched. *)
      let target = replicas.(0) in
      let before = Core.Replica.mempool_pending target in
      let rejected_before = Core.Replica.submits_rejected target in
      checkb "oversized burst refused with a typed verdict" true
        (Core.Replica.submit target (req ~id:999_999 ~count:(cap + 1) ())
         = Core.Replica.Rejected Core.Replica.Mempool_full);
      checki "burst counted" (rejected_before + cap + 1)
        (Core.Replica.submits_rejected target);
      checki "pool untouched by the refused burst" before
        (Core.Replica.mempool_pending target))

let () =
  Alcotest.run "overload"
    [ ( "mempool",
        [ Alcotest.test_case "admission bound" `Quick test_mempool_admission;
          Alcotest.test_case "unbounded by default" `Quick
            test_mempool_unbounded_default ] );
      ( "replica",
        [ Alcotest.test_case "admission verdicts" `Quick test_replica_admission;
          Alcotest.test_case "leader handover under overload" `Quick
            test_leader_handover_under_overload ] );
      ( "transport",
        [ Alcotest.test_case "kind-aware drop policy" `Quick
            test_conn_kind_aware_drops ] );
      ( "acceptance",
        [ Alcotest.test_case "n=16 TCP at 10x load" `Slow
            test_tcp_overload_acceptance ] )
    ]

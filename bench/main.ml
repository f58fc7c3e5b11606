(* Reproduction harness: one bench per table and figure of the paper's
   evaluation (§6), plus the §2 delivery-technique ablations and bechamel
   micro-benchmarks of the hot primitives.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- --list       # experiment ids
     dune exec bench/main.exe -- --only fig9  # one experiment
     dune exec bench/main.exe -- --fast       # reduced sweeps (CI)

   Absolute numbers come from a simulated substrate (see DESIGN.md); the
   *shapes* — who wins, by what factor, where curves flatten or collapse
   — are the reproduction targets recorded in EXPERIMENTS.md. *)

open Harness

(* ------------------------------------------------------------------ *)
(* Table 1: shard-sampling failure probability                         *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header ~id:"table1" ~title:"Expected error probability of shard sampling"
    ~paper:"Table 1: P[> (n-1)/3 Byzantine] when sampling n from rho faults";
  let rows =
    List.map
      (fun (rho, cells) ->
        Printf.sprintf "1/%.0f" (1. /. rho)
        :: List.map (fun (_, p) -> Printf.sprintf "%.2e" p) cells)
      (Analysis.Shard_prob.table1 ())
  in
  let headers = "rho \\ n" :: List.map string_of_int [ 16; 32; 64; 128; 256; 400; 600 ] in
  say "%s" (Stats.Text_table.render ~headers rows);
  say "";
  say "smallest shard with failure <= 1e-3 at rho=1/4: %d replicas"
    (Analysis.Shard_prob.min_shard_size ~rho:0.25 ~target:1e-3);
  say "(the paper's argument: sharding presupposes a BFT protocol that is";
  say " efficient at multiple hundreds of replicas)"

(* ------------------------------------------------------------------ *)
(* Fig 1: motivation — HotStuff & PBFT throughput vs n, two payloads   *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  header ~id:"fig1" ~title:"HotStuff & BFT-SMaRt-style PBFT throughput vs n"
    ~paper:"Fig 1: high throughput only at small scale; sharp drop as n grows";
  let ns_hotstuff = if !fast_mode then [ 8; 32; 64 ] else [ 8; 16; 32; 64; 128 ] in
  let ns_pbft = if !fast_mode then [ 8; 16 ] else [ 8; 16; 32; 64 ] in
  let series payload =
    let hs = Stats.Series.create ~name:(Printf.sprintf "HotStuff %dB (kops/s)" payload) in
    List.iter
      (fun n ->
        let r = run_hotstuff ~payload n in
        Stats.Series.add hs ~x:(float_of_int n) ~y:(r.Baseline.throughput /. 1e3))
      ns_hotstuff;
    let pb = Stats.Series.create ~name:(Printf.sprintf "PBFT %dB (kops/s)" payload) in
    List.iter
      (fun n ->
        let r = run_pbft ~payload n in
        Stats.Series.add pb ~x:(float_of_int n) ~y:(r.Baseline.throughput /. 1e3))
      ns_pbft;
    [ hs; pb ]
  in
  let all = series 128 @ series 1024 in
  say "%s" (Stats.Series.render_table ~x_label:"n" all);
  say "";
  say "expected shape: every curve decays roughly as 1/(n-1) once the";
  say "leader NIC saturates (the scalability-efficiency dilemma)"

(* ------------------------------------------------------------------ *)
(* Fig 2: HotStuff throughput + leader bandwidth utilization vs n      *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  header ~id:"fig2" ~title:"HotStuff: leader bandwidth utilization grows with n"
    ~paper:"Fig 2: throughput falls while the leader's NIC usage climbs";
  let ns = if !fast_mode then [ 8; 32; 64 ] else [ 8; 16; 32; 64; 128 ] in
  let tput = Stats.Series.create ~name:"throughput (kops/s)" in
  let bw = Stats.Series.create ~name:"leader traffic (Gbps)" in
  List.iter
    (fun n ->
      let r = run_hotstuff n in
      Stats.Series.add tput ~x:(float_of_int n) ~y:(r.Baseline.throughput /. 1e3);
      Stats.Series.add bw ~x:(float_of_int n) ~y:(r.Baseline.leader_bps /. 1e9))
    ns;
  say "%s" (Stats.Series.render_table ~x_label:"n" [ tput; bw ]);
  say "";
  say "expected shape: leader traffic pinned near the NIC limit while";
  say "throughput decays — Eq. (1)'s lambda x (n-1) leader workload"

(* ------------------------------------------------------------------ *)
(* Fig 7: HotStuff batch-size sweep                                    *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  header ~id:"fig7" ~title:"HotStuff throughput vs batch size"
    ~paper:"Fig 7: throughput rises with batch size, then flattens";
  let ns = if !fast_mode then [ 32 ] else [ 32; 64; 128 ] in
  let batches = if !fast_mode then [ 100; 800 ] else [ 50; 100; 200; 400; 800; 1600 ] in
  let series =
    List.map
      (fun n ->
        let s = Stats.Series.create ~name:(Printf.sprintf "n=%d (kops/s)" n) in
        List.iter
          (fun batch ->
            let r = run_hotstuff ~batch n in
            Stats.Series.add s ~x:(float_of_int batch) ~y:(r.Baseline.throughput /. 1e3))
          batches;
        s)
      ns
  in
  say "%s" (Stats.Series.render_table ~x_label:"batch" series);
  say "";
  say "expected shape: growth that saturates after ~800 (the paper picks";
  say "800 as HotStuff's operating point, Table 2)"

(* ------------------------------------------------------------------ *)
(* Fig 8: Leopard batch-size sweeps at n = 64                          *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  header ~id:"fig8" ~title:"Leopard throughput & latency vs datablock size and BFTsize (n=64)"
    ~paper:"Fig 8: both rise with alpha; BFTsize stops helping after a point";
  let alphas = if !fast_mode then [ 500; 2000 ] else [ 250; 500; 1000; 2000; 4000; 8000 ] in
  let t1 = Stats.Series.create ~name:"throughput (kops/s)" in
  let l1 = Stats.Series.create ~name:"latency p50 (s)" in
  List.iter
    (fun alpha ->
      let r = run_leopard ~alpha ~bft_size:100 64 in
      Stats.Series.add t1 ~x:(float_of_int alpha) ~y:(r.Core.Runner.throughput /. 1e3);
      Stats.Series.add l1 ~x:(float_of_int alpha)
        ~y:(p50_s r.Core.Runner.latency))
    alphas;
  say "-- varying datablock size (BFTsize = 100) --";
  say "%s" (Stats.Series.render_table ~x_label:"alpha" [ t1; l1 ]);
  let bfts = if !fast_mode then [ 50; 200 ] else [ 25; 50; 100; 200; 400 ] in
  let t2 = Stats.Series.create ~name:"throughput (kops/s)" in
  let l2 = Stats.Series.create ~name:"latency p50 (s)" in
  List.iter
    (fun bft_size ->
      let r = run_leopard ~alpha:2000 ~bft_size 64 in
      Stats.Series.add t2 ~x:(float_of_int bft_size) ~y:(r.Core.Runner.throughput /. 1e3);
      Stats.Series.add l2 ~x:(float_of_int bft_size)
        ~y:(p50_s r.Core.Runner.latency))
    bfts;
  say "";
  say "-- varying BFTsize (alpha = 2000) --";
  say "%s" (Stats.Series.render_table ~x_label:"BFTsize" [ t2; l2 ]);
  say "";
  say "expected shape: latency keeps growing with both batch sizes while";
  say "throughput flattens — the red-box operating points of Table 2"

(* ------------------------------------------------------------------ *)
(* Table 2: chosen implementation parameters                           *)
(* ------------------------------------------------------------------ *)

let table2 () =
  header ~id:"table2" ~title:"Implementation parameters"
    ~paper:"Table 2: alpha & BFTsize per n (Leopard), batch = 800 (HotStuff)";
  let rows =
    List.map
      (fun n ->
        let alpha, bft = Core.Config.paper_batch_sizes ~n in
        [ string_of_int n; string_of_int alpha; string_of_int bft;
          (if n <= 300 then "800" else "-") ])
      [ 32; 64; 128; 256; 400; 600 ]
  in
  say "%s"
    (Stats.Text_table.render
       ~headers:[ "n"; "datablock size (alpha)"; "BFTsize"; "HotStuff batch" ]
       rows);
  say "";
  say "(derived from the fig7/fig8 sweeps, as in the paper)"

(* ------------------------------------------------------------------ *)
(* Fig 3/9: headline scalability comparison                            *)
(* ------------------------------------------------------------------ *)

let leopard_ns () = if !fast_mode then [ 32; 64; 128 ] else [ 32; 64; 128; 256; 400; 600 ]
let hotstuff_ns () = if !fast_mode then [ 32; 64; 128 ] else [ 32; 64; 128; 256; 300 ]

let fig9 () =
  header ~id:"fig9" ~title:"Scalability: Leopard vs HotStuff up to 600 replicas (128B)"
    ~paper:"Fig 3/9: Leopard stays ~1e5+; HotStuff decays; ~5x gap at n=300";
  let lt = Stats.Series.create ~name:"Leopard tput (kops/s)" in
  let ll = Stats.Series.create ~name:"Leopard lat p50 (s)" in
  List.iter
    (fun n ->
      let r = run_leopard n in
      Stats.Series.add lt ~x:(float_of_int n) ~y:(r.Core.Runner.throughput /. 1e3);
      Stats.Series.add ll ~x:(float_of_int n)
        ~y:(p50_s r.Core.Runner.latency))
    (leopard_ns ());
  let ht = Stats.Series.create ~name:"HotStuff tput (kops/s)" in
  let hl = Stats.Series.create ~name:"HotStuff lat p50 (s)" in
  List.iter
    (fun n ->
      let r = run_hotstuff n in
      Stats.Series.add ht ~x:(float_of_int n) ~y:(r.Baseline.throughput /. 1e3);
      Stats.Series.add hl ~x:(float_of_int n) ~y:(p50_s r.Baseline.latency))
    (hotstuff_ns ());
  say "%s" (Stats.Series.render_table ~x_label:"n" [ lt; ht; ll; hl ]);
  (match (Stats.Series.y_at lt ~x:256., Stats.Series.y_at ht ~x:256.) with
   | Some l, Some h when h > 0. -> say "Leopard/HotStuff throughput ratio at n=256: %.1fx" (l /. h)
   | _ -> ());
  say "";
  say "expected shape: flat Leopard curve (offered-load-bound, leader idle)";
  say "vs ~1/(n-1) HotStuff decay; Leopard latency higher and growing with";
  say "n (alpha x BFTsize requests must accumulate per proposal, §6.2.1)"

(* ------------------------------------------------------------------ *)
(* Table 3: latency breakdown                                          *)
(* ------------------------------------------------------------------ *)

let table3 () =
  header ~id:"table3" ~title:"Latency breakdown at n=32"
    ~paper:"Table 3: datablock preparation ~63% (delivery ~50%), agree ~36%";
  let r = run_leopard 32 in
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0. r.Core.Runner.stage_seconds in
  let pct v = Printf.sprintf "%.2f%%" (100. *. v /. total) in
  let find name = try List.assoc name r.Core.Runner.stage_seconds with Not_found -> 0. in
  let gen = find "Datablock Generation" and del = find "Datablock Delivery" in
  let rows =
    [ [ "Datablock Preparation"; "Datablock Generation"; pct gen ];
      [ "Datablock Preparation"; "Datablock Delivery"; pct del ];
      [ "Datablock Preparation"; "SUM"; pct (gen +. del) ];
      [ "Agreement"; ""; pct (find "Agreement") ];
      [ "Response to Client"; ""; pct (find "Response to Client") ] ]
  in
  say "%s" (Stats.Text_table.render ~headers:[ "Stage"; "Component"; "%Latency" ] rows);
  say "";
  say "expected shape: datablock preparation dominates (>50%%), response";
  say "to client negligible — the delivery-dominated latency of §6.2.1"

(* ------------------------------------------------------------------ *)
(* Fig 10: leader bandwidth utilization, both systems                  *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  header ~id:"fig10" ~title:"Leader bandwidth utilization vs n"
    ~paper:"Fig 10: Leopard's leader stays well under 0.5 Gbps and flat";
  let ls = Stats.Series.create ~name:"Leopard leader (Gbps)" in
  List.iter
    (fun n ->
      let r = run_leopard n in
      Stats.Series.add ls ~x:(float_of_int n) ~y:(r.Core.Runner.leader_bps /. 1e9))
    (leopard_ns ());
  let hs = Stats.Series.create ~name:"HotStuff leader (Gbps)" in
  List.iter
    (fun n ->
      let r = run_hotstuff n in
      Stats.Series.add hs ~x:(float_of_int n) ~y:(r.Baseline.leader_bps /. 1e9))
    (hotstuff_ns ());
  say "%s" (Stats.Series.render_table ~x_label:"n" [ ls; hs ]);
  say "";
  say "expected shape: HotStuff's leader rises to the NIC limit; Leopard's";
  say "stays near the aggregate request rate (datablocks in, hashes out)"

(* ------------------------------------------------------------------ *)
(* Table 4: bandwidth breakdown by role and category                   *)
(* ------------------------------------------------------------------ *)

let table4 () =
  header ~id:"table4" ~title:"Network bandwidth usage breakdown at n=32"
    ~paper:"Table 4: leader ~96% receiving datablocks; non-leader ~50/50 send/recv";
  let r = run_leopard 32 in
  let role label (view : Core.Runner.bandwidth_view) =
    let total = view.Core.Runner.sent_bytes + view.Core.Runner.received_bytes in
    let pct v = Printf.sprintf "%.2f%%" (100. *. float_of_int v /. float_of_int total) in
    let rows dir cats = List.map (fun (cat, bytes) -> [ label; dir; cat; pct bytes ]) cats in
    rows "Sent" view.Core.Runner.sent_by_category
    @ [ [ label; "Sent"; "SUM"; pct view.Core.Runner.sent_bytes ] ]
    @ rows "Received" view.Core.Runner.received_by_category
    @ [ [ label; "Received"; "SUM"; pct view.Core.Runner.received_bytes ] ]
  in
  say "%s"
    (Stats.Text_table.render
       ~headers:[ "Role"; "Dir"; "Category"; "%Bandwidth" ]
       (role "Leader" r.Core.Runner.leader @ role "Non-leader" r.Core.Runner.non_leader));
  say "";
  say "expected shape: leader receive dominated by datablocks; proposals a";
  say "few percent of leader send; votes well under 1%% (the paper's point";
  say "that vote-complexity alone mismeasures leader-based BFT)"

(* ------------------------------------------------------------------ *)
(* Fig 11: throughput vs per-replica bandwidth (NetEm sweep)           *)
(* ------------------------------------------------------------------ *)

let throttled mb = Net.Network.{ default_link with out_bps = mbps mb; in_bps = mbps mb }

let fig11 () =
  header ~id:"fig11" ~title:"Throughput under throttled per-replica bandwidth (20-200 Mbps)"
    ~paper:"Fig 11: both scale with bandwidth; Leopard converts ~1/2 of it";
  let mbs = if !fast_mode then [ 20.; 100. ] else [ 20.; 50.; 100.; 150.; 200. ] in
  let ns = if !fast_mode then [ 16 ] else [ 16; 64 ] in
  let series =
    List.concat_map
      (fun n ->
        let l = Stats.Series.create ~name:(Printf.sprintf "Leopard n=%d (kops/s)" n) in
        let h = Stats.Series.create ~name:(Printf.sprintf "HotStuff n=%d (kops/s)" n) in
        List.iter
          (fun mb ->
            let rl = run_leopard ~link:(throttled mb) ~load:1e5 ~alpha:500 ~bft_size:50 n in
            Stats.Series.add l ~x:mb ~y:(rl.Core.Runner.throughput /. 1e3);
            let rh = run_hotstuff ~link:(throttled mb) ~load:1e5 n in
            Stats.Series.add h ~x:mb ~y:(rh.Baseline.throughput /. 1e3))
          mbs;
        [ l; h ])
      ns
  in
  say "%s" (Stats.Series.render_table ~x_label:"Mbps" series);
  say "";
  say "expected shape: linear growth for both; Leopard near B/2/payload";
  say "(effective utilization ~1/2, §6.2.2-6.2.3), HotStuff near";
  say "B/(n-1)/payload and shrinking as n grows"

(* ------------------------------------------------------------------ *)
(* Fig 12: HotStuff's cost-effectiveness vs the 1/(n-1) model          *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  header ~id:"fig12" ~title:"Cost-effectiveness of added bandwidth in HotStuff"
    ~paper:"Fig 12: measured ratio tracks the theoretical 1/(n-1)";
  let ns = if !fast_mode then [ 8; 16; 32 ] else [ 8; 16; 32; 64; 128 ] in
  let measured = Stats.Series.create ~name:"measured d(goodput)/d(bandwidth)" in
  let theory = Stats.Series.create ~name:"theory 1/(n-1)" in
  List.iter
    (fun n ->
      let lo = run_hotstuff ~link:(throttled 20.) ~load:1e5 n in
      let hi = run_hotstuff ~link:(throttled 200.) ~load:1e5 n in
      let d_goodput = hi.Baseline.goodput_bps -. lo.Baseline.goodput_bps in
      let d_bw = Net.Network.mbps 180. in
      Stats.Series.add measured ~x:(float_of_int n) ~y:(d_goodput /. d_bw);
      Stats.Series.add theory ~x:(float_of_int n)
        ~y:(Core.Scaling_factor.hotstuff_cost_effectiveness ~n))
    ns;
  say "%s" (Stats.Series.render_table ~x_label:"n" [ measured; theory ]);
  say "";
  say "expected shape: the two columns agree within a small factor and";
  say "both approach 0 — adding bandwidth cannot rescue HotStuff at scale";
  let leo = Core.Scaling_factor.leopard_cost_effectiveness ~alpha_bytes:256000. ~beta:32. in
  say "(Leopard's ratio is ~%.2f at every n, §5.2)" leo

(* ------------------------------------------------------------------ *)
(* Fig 13: view-change time and communication cost                     *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  header ~id:"fig13" ~title:"View change cost after stopping the leader"
    ~paper:"Fig 13: seconds-scale completion (<6s at n=400); cost mostly the new-view";
  let ns = if !fast_mode then [ 16; 64 ] else [ 16; 64; 128; 256; 400 ] in
  let dur = Stats.Series.create ~name:"trigger->entry (s)" in
  let bytes = Stats.Series.create ~name:"view-change traffic (MB)" in
  List.iter
    (fun n ->
      (* Moderate load and small batches: the quantity under test is the
         view-change protocol (state synchronization + new-view), not
         datablock dynamics; k bounds the outstanding instances either
         way (§6.2.4). *)
      let cfg =
        Core.Config.make ~n ~alpha:500 ~bft_size:50 ~view_timeout:(Sim.Sim_time.s 4)
          ~datablock_timeout:(Sim.Sim_time.s 2) ~proposal_timeout:(Sim.Sim_time.s 1) ()
      in
      let sp =
        Core.Runner.spec ~cfg ~load:2e4 ~duration:(Sim.Sim_time.s 45) ~warmup:(Sim.Sim_time.s 2)
          ~load_until:(Sim.Sim_time.s 25) ~stop_leader_at:(Sim.Sim_time.s 12)
          ~client_resend_timeout:(Sim.Sim_time.s 3) ()
      in
      let r = Core.Runner.run sp in
      let d = Option.value r.Core.Runner.vc_trigger_to_entry ~default:nan in
      Stats.Series.add dur ~x:(float_of_int n) ~y:d;
      Stats.Series.add bytes ~x:(float_of_int n) ~y:(float_of_int r.Core.Runner.vc_bytes /. 1e6);
      say "  n=%-4d view change in %ss, %.2f MB, final view %d, safety=%b" n (seconds d)
        (float_of_int r.Core.Runner.vc_bytes /. 1e6)
        r.Core.Runner.final_view r.Core.Runner.safety_ok)
    ns;
  say "";
  say "%s" (Stats.Series.render_table ~x_label:"n" [ dur; bytes ]);
  say "";
  say "expected shape: both grow with n (quadratic new-view traffic), with";
  say "completion still in seconds at n=400"

(* ------------------------------------------------------------------ *)
(* Scaling factor: analytic and measured                               *)
(* ------------------------------------------------------------------ *)

let sf () =
  header ~id:"sf" ~title:"Scaling factor (heaviest per-bit workload)"
    ~paper:"§1/§5.2: SF = n-1 for HotStuff; constant for Leopard with alpha = lambda(n-1)";
  let beta = 32. in
  let analytic_leopard = Stats.Series.create ~name:"Leopard SF (analytic)" in
  let analytic_hotstuff = Stats.Series.create ~name:"HotStuff SF (analytic)" in
  let measured = Stats.Series.create ~name:"Leopard SF (measured)" in
  List.iter
    (fun n ->
      let alpha, _ = Core.Config.paper_batch_sizes ~n in
      let alpha_bytes = float_of_int (alpha * 128) in
      Stats.Series.add analytic_leopard ~x:(float_of_int n)
        ~y:(Core.Scaling_factor.leopard_sf ~alpha_bytes ~beta ~n);
      Stats.Series.add analytic_hotstuff ~x:(float_of_int n)
        ~y:(Core.Scaling_factor.hotstuff_sf ~n);
      let r = run_leopard n in
      let window = r.Core.Runner.window_sec in
      let traffic (v : Core.Runner.bandwidth_view) =
        float_of_int (v.Core.Runner.sent_bytes + v.Core.Runner.received_bytes) /. window
      in
      let lambda_bytes = r.Core.Runner.goodput_bps /. 8. in
      if lambda_bytes > 0. then
        Stats.Series.add measured ~x:(float_of_int n)
          ~y:
            (Core.Scaling_factor.measured_sf ~lambda_bytes_per_sec:lambda_bytes
               ~replica_bytes_per_sec:
                 [ traffic r.Core.Runner.leader; traffic r.Core.Runner.non_leader ]))
    (leopard_ns ());
  say "%s"
    (Stats.Series.render_table ~x_label:"n" [ analytic_leopard; measured; analytic_hotstuff ]);
  say "";
  say "expected shape: Leopard's column constant (~2-3); HotStuff's = n-1"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_priority () =
  header ~id:"ablation-priority" ~title:"Priority channels off (channel 1 = channel 2)"
    ~paper:"§6.1: without priority, agreement messages queue behind datablocks";
  let n = 32 in
  let link = throttled 40. in
  let with_prio = run_leopard ~link ~load:2e4 ~alpha:500 ~bft_size:50 ~priority_channels:true n in
  let without = run_leopard ~link ~load:2e4 ~alpha:500 ~bft_size:50 ~priority_channels:false n in
  say "%s"
    (Stats.Text_table.render
       ~headers:[ "variant"; "throughput (kops/s)"; "latency p50 (s)"; "blocks" ]
       [ [ "priority channels";
           kops with_prio.Core.Runner.throughput;
           latency_p50 with_prio.Core.Runner.latency;
           string_of_int with_prio.Core.Runner.executed_blocks ];
         [ "single channel";
           kops without.Core.Runner.throughput;
           latency_p50 without.Core.Runner.latency;
           string_of_int without.Core.Runner.executed_blocks ] ]);
  say "";
  say "expected shape: the single-channel variant confirms later (higher";
  say "latency) on a congested link because proposals/votes/proofs wait";
  say "behind queued datablocks"

let ablation_leaderdb () =
  header ~id:"ablation-leaderdb" ~title:"Leader also generates datablocks"
    ~paper:"§4.1: Leopard excludes the leader from datablock generation";
  let n = 32 in
  let excl = run_leopard ~load:1e5 n in
  let incl = run_leopard ~load:1e5 ~leader_generates_datablocks:true n in
  say "%s"
    (Stats.Text_table.render
       ~headers:[ "variant"; "throughput (kops/s)"; "leader traffic (Gbps)" ]
       [ [ "leader excluded"; kops excl.Core.Runner.throughput;
           gbps_str excl.Core.Runner.leader_bps ];
         [ "leader generates too"; kops incl.Core.Runner.throughput;
           gbps_str incl.Core.Runner.leader_bps ] ]);
  say "";
  say "expected shape: including the leader raises its traffic (it now also";
  say "multicasts payload) without throughput benefit — the reason the";
  say "paper leaves only proposal duty at the leader"

let ablation_alpha () =
  header ~id:"ablation-alpha" ~title:"Fixed small alpha vs adaptive alpha"
    ~paper:"§5.2: alpha must grow like lambda(n-1) or SF grows again";
  let ns = if !fast_mode then [ 32; 128 ] else [ 32; 128; 300 ] in
  let fixed = Stats.Series.create ~name:"alpha=250: leader Gbps" in
  let adaptive = Stats.Series.create ~name:"adaptive alpha: leader Gbps" in
  let fixed_t = Stats.Series.create ~name:"alpha=250: kops/s" in
  let adaptive_t = Stats.Series.create ~name:"adaptive: kops/s" in
  List.iter
    (fun n ->
      let rf = run_leopard ~alpha:250 ~bft_size:100 n in
      let ra = run_leopard n in
      Stats.Series.add fixed ~x:(float_of_int n) ~y:(rf.Core.Runner.leader_bps /. 1e9);
      Stats.Series.add adaptive ~x:(float_of_int n) ~y:(ra.Core.Runner.leader_bps /. 1e9);
      Stats.Series.add fixed_t ~x:(float_of_int n) ~y:(rf.Core.Runner.throughput /. 1e3);
      Stats.Series.add adaptive_t ~x:(float_of_int n) ~y:(ra.Core.Runner.throughput /. 1e3))
    ns;
  say "%s" (Stats.Series.render_table ~x_label:"n" [ fixed; adaptive; fixed_t; adaptive_t ]);
  say "";
  say "expected shape: with a fixed small alpha the leader's hash egress";
  say "beta(n-1)/alpha grows with n; the adaptive column stays flat"

let ablation_delivery () =
  header ~id:"ablation-delivery" ~title:"Data-delivery techniques compared"
    ~paper:"§2: erasure coding costs c x everywhere; trees lose subtrees to faults";
  let n = 300 in
  let alpha_bytes = 4000. *. 128. and beta = 32. in
  let rows =
    [ ("direct leader (HotStuff)", Analysis.Delivery_models.direct_leader ~n);
      ("Leopard datablocks", Analysis.Delivery_models.leopard_decoupled ~n ~alpha_bytes ~beta);
      ( "erasure coded (c=2)",
        Analysis.Delivery_models.erasure_coded ~n ~code_rate_inv:2. ~byz_fraction:0.33 );
      ( "broadcast tree (fanout 2)",
        Analysis.Delivery_models.broadcast_tree ~n ~fanout:2 ~byz_fraction:0.33 ) ]
  in
  say "%s"
    (Stats.Text_table.render
       ~headers:
         [ "technique"; "leader egress/bit"; "replica egress/bit"; "hops"; "coverage"; "cpu/bit" ]
       (List.map
          (fun (name, (d : Analysis.Delivery_models.t)) ->
            [ name;
              Printf.sprintf "%.3f" d.Analysis.Delivery_models.leader_egress_per_bit;
              Printf.sprintf "%.3f" d.Analysis.Delivery_models.replica_egress_per_bit;
              Printf.sprintf "%.0f" d.Analysis.Delivery_models.delivery_hops;
              Printf.sprintf "%.2f" d.Analysis.Delivery_models.coverage;
              Printf.sprintf "%.1f" d.Analysis.Delivery_models.cpu_overhead_per_bit ])
          rows));
  say "";
  say "expected shape: only the datablock design has ~0 leader cost, 1.0";
  say "replica cost, single-hop delivery, full coverage and no coding CPU";
  say "";
  (* Measured counterpart: one 64 KiB broadcast to 64 replicas on the
     lab, honest and with Byzantine relays. *)
  let n = 64 in
  let payload = String.init 65536 (fun i -> Char.chr (i land 0xff)) in
  let lab name byzantine strategy =
    let r = Delivery.Broadcast_lab.run ~n ~payload ~byzantine strategy in
    [ name;
      Printf.sprintf "%d/%d" r.Delivery.Broadcast_lab.delivered r.Delivery.Broadcast_lab.honest;
      (match r.Delivery.Broadcast_lab.completion with
       | Some t -> Printf.sprintf "%.1f ms" (1000. *. Sim.Sim_time.to_sec t)
       | None -> "never");
      Printf.sprintf "%.2f" (float_of_int r.Delivery.Broadcast_lab.source_egress /. 65536.);
      Printf.sprintf "%.2f" (float_of_int r.Delivery.Broadcast_lab.max_replica_egress /. 65536.) ]
  in
  let byz = [ 2; 5; 11 ] (* inner tree positions: each severs a subtree *) in
  say "measured (broadcast lab, 64 KiB to %d replicas; x = payload multiples):" n;
  say "%s"
    (Stats.Text_table.render
       ~headers:[ "technique"; "delivered"; "completion"; "source x"; "max replica x" ]
       [ lab "direct, honest" [] Delivery.Broadcast_lab.Direct;
         lab "tree f=2, honest" [] (Delivery.Broadcast_lab.Tree { fanout = 2 });
         lab "tree f=2, 3 Byzantine" byz (Delivery.Broadcast_lab.Tree { fanout = 2 });
         lab "erasure k=21, honest" [] (Delivery.Broadcast_lab.Erasure { k = 21 });
         lab "erasure k=21, 3 Byzantine" byz (Delivery.Broadcast_lab.Erasure { k = 21 }) ])

let latency_model () =
  header ~id:"latency-model" ~title:"Closed-form latency model vs measured (Fig 9 right)"
    ~paper:"§5.2/§6.2.1: 7-delta responsive path + batching delay from alpha x BFTsize";
  let modeled = Stats.Series.create ~name:"model (s)" in
  let meas = Stats.Series.create ~name:"measured p50 (s)" in
  List.iter
    (fun n ->
      let alpha, bft_size = Core.Config.paper_batch_sizes ~n in
      let m =
        Analysis.Latency_model.leopard ~n ~load:leopard_load ~alpha ~bft_size ~delta:0.001
      in
      Stats.Series.add modeled ~x:(float_of_int n) ~y:m.Analysis.Latency_model.total;
      let r = run_leopard n in
      Stats.Series.add meas ~x:(float_of_int n)
        ~y:(p50_s r.Core.Runner.latency))
    (leopard_ns ());
  say "%s" (Stats.Series.render_table ~x_label:"n" [ modeled; meas ]);
  say "";
  say "expected shape: both columns grow with n and agree within ~2x —";
  say "batching (datablock + BFTblock fill at Table 2 sizes), not the";
  say "agreement, sets Leopard's latency at scale"

let extension_lanes () =
  header ~id:"extension-lanes" ~title:"Parallel connections (future work, §6.2.1)"
    ~paper:"'parallel TCP connections' listed as a planned engineering optimization";
  let n = 32 in
  let base = throttled 40. in
  let case name lanes priority_channels =
    let r =
      run_leopard
        ~link:Net.Network.{ base with lanes }
        ~load:2e4 ~alpha:500 ~bft_size:50 ~priority_channels n
    in
    [ name;
      kops r.Core.Runner.throughput;
      latency_p50 r.Core.Runner.latency;
      string_of_int r.Core.Runner.executed_blocks ]
  in
  say "%s"
    (Stats.Text_table.render
       ~headers:[ "variant"; "throughput (kops/s)"; "latency p50 (s)"; "blocks" ]
       [ case "1 lane + priority channels" 1 true;
         case "1 lane, single channel" 1 false;
         case "4 lanes, single channel" 4 false;
         case "4 lanes + priority channels" 4 true ]);
  say "";
  say "expected shape: an honest negative result — lanes alone do not fix";
  say "the single-channel latency (the FIFO queue, not the line, is what";
  say "delays consensus messages), and they slightly hurt the priority";
  say "variant (each transfer runs at 1/lanes rate, so a high-priority";
  say "message waits longer for a free lane). Queue discipline — the";
  say "paper's channel ①/② design — is the effective mechanism; parallel";
  say "connections only pay off against per-connection limits (cwnd)";
  say "that a fluid bandwidth model does not have"

let extension_chained () =
  header ~id:"extension-chained" ~title:"Chained Leopard: decoupling on chain-based BFT"
    ~paper:"§4.3 remark: the decoupling also preserves efficiency for HotStuff-style chains";
  let ns = if !fast_mode then [ 32; 64 ] else [ 32; 64; 128; 300 ] in
  let hybrid = Stats.Series.create ~name:"Chained Leopard (kops/s)" in
  let hybrid_bw = Stats.Series.create ~name:"CL leader (Gbps)" in
  let hotstuff = Stats.Series.create ~name:"HotStuff (kops/s)" in
  let hotstuff_bw = Stats.Series.create ~name:"HS leader (Gbps)" in
  List.iter
    (fun n ->
      let cfg = Hybrid.Chained_leopard.make_cfg ~n () in
      let sp =
        Hybrid.Chained_leopard.spec ~cfg ~load:leopard_load ~duration:(Sim.Sim_time.s 25)
          ~warmup:(Sim.Sim_time.s 7) ()
      in
      let r = Hybrid.Chained_leopard.run sp in
      Stats.Series.add hybrid ~x:(float_of_int n) ~y:(r.Baseline.throughput /. 1e3);
      Stats.Series.add hybrid_bw ~x:(float_of_int n) ~y:(r.Baseline.leader_bps /. 1e9);
      if n <= 300 then begin
        let h = run_hotstuff n in
        Stats.Series.add hotstuff ~x:(float_of_int n) ~y:(h.Baseline.throughput /. 1e3);
        Stats.Series.add hotstuff_bw ~x:(float_of_int n) ~y:(h.Baseline.leader_bps /. 1e9)
      end)
    ns;
  say "%s" (Stats.Series.render_table ~x_label:"n" [ hybrid; hotstuff; hybrid_bw; hotstuff_bw ]);
  say "";
  say "expected shape: the chained variant keeps the flat curve and the";
  say "idle leader — the decoupling, not the parallel instances, is what";
  say "removes the bottleneck (the paper's §4.3 claim)"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the hot primitives                     *)
(* ------------------------------------------------------------------ *)

let check_regressions = ref false

let micro () =
  header ~id:"micro" ~title:"Micro-benchmarks (bechamel) with JSON baseline"
    ~paper:"hot primitives under the figures above";
  Micro.run ~fast:!fast_mode ~check:!check_regressions

let macro () =
  header ~id:"macro" ~title:"Macro-benchmark: simulator cost vs n, with JSON baseline"
    ~paper:"the substrate cost of scaling the reproductions toward n=600";
  Macro.run ~fast:!fast_mode ~check:!check_regressions

let net () =
  header ~id:"net" ~title:"Transport benchmark: zero-copy TCP data plane, with JSON baseline"
    ~paper:"the leader's multicast fan-out cost over real sockets (§2, §5 data plane)";
  Net_bench.run ~fast:!fast_mode ~check:!check_regressions

let verify () =
  header ~id:"verify"
    ~title:"Verification pipeline: domain worker pool vs inline, with JSON baseline"
    ~paper:"crypto verification off the event loop (throughput preservation, §6.2)";
  Verify_bench.run ~fast:!fast_mode ~check:!check_regressions

let store () =
  header ~id:"store"
    ~title:"Durable store: WAL append throughput and recovery time, with JSON baseline"
    ~paper:"stable storage for vote safety across restarts (§3 system model)";
  Store_bench.run ~fast:!fast_mode ~check:!check_regressions

(* ------------------------------------------------------------------ *)
(* Registry and entry point                                            *)
(* ------------------------------------------------------------------ *)

let experiments =
  [ ("table1", table1);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig7", fig7);
    ("fig8", fig8);
    ("table2", table2);
    ("fig9", fig9);
    ("table3", table3);
    ("fig10", fig10);
    ("table4", table4);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("sf", sf);
    ("latency-model", latency_model);
    ("ablation-priority", ablation_priority);
    ("ablation-leaderdb", ablation_leaderdb);
    ("ablation-alpha", ablation_alpha);
    ("ablation-delivery", ablation_delivery);
    ("extension-chained", extension_chained);
    ("extension-lanes", extension_lanes);
    ("micro", micro);
    ("macro", macro);
    ("net", net);
    ("verify", verify);
    ("store", store) ]

let () =
  let args = Array.to_list Sys.argv in
  if List.mem "--fast" args then fast_mode := true;
  if List.mem "--check-regressions" args then check_regressions := true;
  if List.mem "--list" args then List.iter (fun (id, _) -> print_endline id) experiments
  else begin
    let only =
      (* every "--only <id>"; repeated flags select several experiments
         sharing one process (and hence the memoized canonical runs) *)
      let rec find acc = function
        | "--only" :: id :: rest -> find (id :: acc) rest
        | _ :: rest -> find acc rest
        | [] -> List.rev acc
      in
      find [] args
    in
    let to_run =
      match only with
      | [] -> experiments
      | ids ->
        List.map
          (fun id ->
            match List.assoc_opt id experiments with
            | Some f -> (id, f)
            | None ->
              Printf.eprintf "unknown experiment %s (try --list)\n" id;
              exit 1)
          ids
    in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (id, f) ->
        let t = Unix.gettimeofday () in
        f ();
        say "[%s done in %.1fs]" id (Unix.gettimeofday () -. t))
      to_run;
    say "";
    say "all requested benches done in %.1fs" (Unix.gettimeofday () -. t0)
  end

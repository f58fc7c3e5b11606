(* Tests for the closed-form analysis library. *)

let checkb = Alcotest.(check bool)
let checkf eps = Alcotest.(check (float eps))

(* -- Binomial ------------------------------------------------------------- *)

let test_log_factorial () =
  checkf 1e-12 "0!" 0. (Analysis.Binomial.log_factorial 0);
  checkf 1e-12 "1!" 0. (Analysis.Binomial.log_factorial 1);
  checkf 1e-9 "5!" (log 120.) (Analysis.Binomial.log_factorial 5)

let test_log_choose () =
  checkf 1e-9 "C(5,2)" (log 10.) (Analysis.Binomial.log_choose 5 2);
  checkb "out of range" true (Analysis.Binomial.log_choose 5 6 = neg_infinity);
  checkb "negative" true (Analysis.Binomial.log_choose 5 (-1) = neg_infinity)

let test_pmf_sums_to_one () =
  let n = 40 and p = 0.3 in
  let sum = ref 0. in
  for k = 0 to n do
    sum := !sum +. Analysis.Binomial.pmf ~n ~p k
  done;
  checkf 1e-9 "sums to 1" 1.0 !sum

let test_cdf_tail_complementary () =
  let n = 25 and p = 0.2 in
  for k = 0 to n do
    checkf 1e-9 "cdf + tail = 1" 1.0
      (Analysis.Binomial.cdf ~n ~p k +. Analysis.Binomial.tail_above ~n ~p k)
  done

let prop_tail_monotone =
  QCheck.Test.make ~name:"tail decreases in k" ~count:50
    QCheck.(pair (int_range 4 200) (float_range 0.05 0.45))
    (fun (n, p) ->
      let rec go k = k >= n ||
        (Analysis.Binomial.tail_above ~n ~p (k + 1) <= Analysis.Binomial.tail_above ~n ~p k +. 1e-12
         && go (k + 1))
      in
      go 0)

(* -- Shard probability vs the paper's Table 1 -------------------------------- *)

let near ~rel expected actual =
  Float.abs (actual -. expected) <= rel *. Float.max expected actual

let test_table1_values () =
  (* Spot checks against the published Table 1 (values are rounded to 3
     significant digits in the paper; allow 5% relative slack). *)
  let cases_quarter =
    [ (16, 1.90e-1); (32, 1.54e-1); (64, 5.96e-2); (128, 1.82e-2); (256, 1.30e-3);
      (400, 8.68e-5); (600, 2.97e-6) ]
  in
  List.iter
    (fun (n, expected) ->
      let p = Analysis.Shard_prob.failure_probability ~rho:0.25 ~n in
      checkb (Printf.sprintf "rho=1/4 n=%d (got %.3e)" n p) true (near ~rel:0.05 expected p))
    cases_quarter;
  let cases_fifth =
    [ (16, 8.17e-2); (32, 4.11e-2); (64, 5.10e-3); (128, 2.18e-4); (256, 2.44e-7);
      (400, 1.77e-10); (600, 1.41e-14) ]
  in
  List.iter
    (fun (n, expected) ->
      let p = Analysis.Shard_prob.failure_probability ~rho:0.20 ~n in
      checkb (Printf.sprintf "rho=1/5 n=%d (got %.3e)" n p) true (near ~rel:0.05 expected p))
    cases_fifth

let test_min_shard_size () =
  let n = Analysis.Shard_prob.min_shard_size ~rho:0.25 ~target:1e-3 in
  checkb "hundreds needed at rho=1/4" true (n > 200 && n < 400);
  checkb "achieves target" true (Analysis.Shard_prob.failure_probability ~rho:0.25 ~n <= 1e-3);
  checkb "minimal" true (Analysis.Shard_prob.failure_probability ~rho:0.25 ~n:(n - 1) > 1e-3)

(* -- Delivery models ----------------------------------------------------------- *)

let test_delivery_direct_vs_leopard () =
  let d = Analysis.Delivery_models.direct_leader ~n:300 in
  let l = Analysis.Delivery_models.leopard_decoupled ~n:300 ~alpha_bytes:512_000. ~beta:32. in
  checkf 1e-9 "direct leader n-1" 299. d.Analysis.Delivery_models.leader_egress_per_bit;
  checkb "leopard leader tiny" true (l.Analysis.Delivery_models.leader_egress_per_bit < 0.1);
  checkf 1e-9 "leopard replica carries 1x" 1. l.Analysis.Delivery_models.replica_egress_per_bit

let test_delivery_erasure () =
  let e = Analysis.Delivery_models.erasure_coded ~n:300 ~code_rate_inv:2. ~byz_fraction:0.3 in
  (* §2: both leader and non-leader pay c x the payload, plus coding CPU. *)
  checkf 1e-9 "leader pays c" 2. e.Analysis.Delivery_models.leader_egress_per_bit;
  checkf 1e-9 "replica pays c" 2. e.Analysis.Delivery_models.replica_egress_per_bit;
  checkb "cpu overhead" true (e.Analysis.Delivery_models.cpu_overhead_per_bit > 0.)

let test_delivery_tree_fragility () =
  let honest = Analysis.Delivery_models.broadcast_tree ~n:127 ~fanout:2 ~byz_fraction:0. in
  checkf 1e-9 "full coverage without faults" 1.0 honest.Analysis.Delivery_models.coverage;
  checkb "log depth" true (honest.Analysis.Delivery_models.delivery_hops >= 6.);
  let faulty = Analysis.Delivery_models.broadcast_tree ~n:127 ~fanout:2 ~byz_fraction:0.33 in
  (* §2: a Byzantine inner node severs its subtree — coverage collapses. *)
  checkb "coverage collapses under faults" true
    (faulty.Analysis.Delivery_models.coverage < 0.6)

(* -- Latency model -------------------------------------------------------------- *)

let test_latency_model_components () =
  let m = Analysis.Latency_model.leopard ~n:64 ~load:1.5e5 ~alpha:2000 ~bft_size:100 ~delta:0.001 in
  (* db fill: 0.5 * 2000/(150000/63) = 0.42 s; bft fill: 0.5 * 200000/150000 = 0.67 s *)
  checkf 0.01 "datablock fill" 0.42 m.Analysis.Latency_model.datablock_fill;
  checkf 0.01 "bftblock fill" 0.667 m.Analysis.Latency_model.bftblock_fill;
  checkf 1e-9 "network" 0.007 m.Analysis.Latency_model.network;
  checkb "total sums" true
    (Float.abs
       (m.Analysis.Latency_model.total
       -. (m.Analysis.Latency_model.datablock_fill +. m.Analysis.Latency_model.bftblock_fill
          +. m.Analysis.Latency_model.network))
     < 1e-9)

let test_latency_model_grows_with_n () =
  (* With Table 2's alpha/BFTsize growing in n, modeled latency grows —
     the Fig 9 (right) shape. *)
  let at n =
    let alpha, bft_size = Core.Config.paper_batch_sizes ~n in
    (Analysis.Latency_model.leopard ~n ~load:1.5e5 ~alpha ~bft_size ~delta:0.001)
      .Analysis.Latency_model.total
  in
  checkb "32 < 128 < 600" true (at 32 < at 128 && at 128 < at 600)

let test_latency_model_matches_simulation () =
  (* The model should land within ~2x of a measured run (it ignores
     queueing and the response path). *)
  let n = 16 and load = 10_000. and alpha = 200 and bft_size = 10 in
  let cfg = Core.Config.make ~n ~alpha ~bft_size ~cost:Crypto.Cost_model.free () in
  let sp =
    Core.Runner.spec ~cfg ~load ~duration:(Sim.Sim_time.s 15) ~warmup:(Sim.Sim_time.s 3) ()
  in
  let r = Core.Runner.run sp in
  let measured = Obs.Histogram.Snapshot.quantile r.Core.Runner.latency 0.5 /. 1e9 in
  let modeled =
    (Analysis.Latency_model.leopard ~n ~load ~alpha ~bft_size ~delta:0.001)
      .Analysis.Latency_model.total
  in
  checkb
    (Printf.sprintf "model %.3f vs measured %.3f within 2x" modeled measured)
    true
    (measured > 0.5 *. modeled && measured < 2. *. modeled)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "analysis"
    [ ( "binomial",
        [ Alcotest.test_case "log factorial" `Quick test_log_factorial;
          Alcotest.test_case "log choose" `Quick test_log_choose;
          Alcotest.test_case "pmf sums to one" `Quick test_pmf_sums_to_one;
          Alcotest.test_case "cdf/tail complementary" `Quick test_cdf_tail_complementary ]
        @ qsuite [ prop_tail_monotone ] );
      ( "shard probability",
        [ Alcotest.test_case "Table 1 values" `Quick test_table1_values;
          Alcotest.test_case "min shard size" `Quick test_min_shard_size ] );
      ( "delivery models",
        [ Alcotest.test_case "direct vs leopard" `Quick test_delivery_direct_vs_leopard;
          Alcotest.test_case "erasure coding cost" `Quick test_delivery_erasure;
          Alcotest.test_case "broadcast tree fragility" `Quick test_delivery_tree_fragility ] );
      ( "latency model",
        [ Alcotest.test_case "components" `Quick test_latency_model_components;
          Alcotest.test_case "grows with n" `Quick test_latency_model_grows_with_n;
          Alcotest.test_case "matches simulation" `Quick test_latency_model_matches_simulation ] ) ]

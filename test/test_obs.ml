(* Obs: the unified metrics registry. Counter/gauge/histogram semantics,
   idempotent registration, multi-domain histogram hammering (the DLS
   shards must merge losslessly), collect hooks, and the exposition
   format — including the guarantee the sim plane leans on: scraping is
   read-only, so two scrapes of an idle registry are byte-identical. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* -- instrument semantics ----------------------------------------------- *)

let test_counter () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "c_total" in
  checki "fresh" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.incr c;
  Obs.Counter.add c 40;
  checki "incr+add" 42 (Obs.Counter.value c);
  Obs.Counter.mirror c 7;
  checki "mirror overwrites" 7 (Obs.Counter.value c)

let test_gauge () =
  let reg = Obs.Registry.create () in
  let g = Obs.Registry.gauge reg "g" in
  checki "fresh" 0 (Obs.Gauge.value g);
  Obs.Gauge.set g 17;
  Obs.Gauge.add g (-20);
  checki "set+add goes negative" (-3) (Obs.Gauge.value g)

let test_histogram_buckets () =
  let reg = Obs.Registry.create () in
  let h = Obs.Registry.histogram reg "h_ns" in
  checki "fresh count" 0 (Obs.Histogram.count h);
  (* bucket b holds [2^b, 2^(b+1)): 0,1 -> b0; 2,3 -> b1; 4..7 -> b2 *)
  List.iter (Obs.Histogram.record h) [ 0; 1; 2; 3; 4; 7; 8; 1024; -5 ];
  checki "count" 9 (Obs.Histogram.count h);
  checki "sum (negatives clamp to 0)" (0 + 1 + 2 + 3 + 4 + 7 + 8 + 1024 + 0)
    (Obs.Histogram.sum h);
  let b = Obs.Histogram.buckets h in
  checki "bucket 0 = {0,1,clamped -5}" 3 b.(0);
  checki "bucket 1 = {2,3}" 2 b.(1);
  checki "bucket 2 = {4,7}" 2 b.(2);
  checki "bucket 3 = {8}" 1 b.(3);
  checki "bucket 10 = {1024}" 1 b.(10)

let test_histogram_multidomain () =
  let reg = Obs.Registry.create () in
  let h = Obs.Registry.histogram reg "hammer_ns" in
  let per_domain = 100_000 in
  let hammer () =
    for i = 1 to per_domain do
      Obs.Histogram.record h (i land 1023)
    done
  in
  let ds = Array.init 4 (fun _ -> Domain.spawn hammer) in
  hammer ();
  Array.iter Domain.join ds;
  (* 5 domains (4 spawned + this one), no lost updates across shards *)
  checki "merged count" (5 * per_domain) (Obs.Histogram.count h);
  let expect_sum = ref 0 in
  for i = 1 to per_domain do
    expect_sum := !expect_sum + (i land 1023)
  done;
  checki "merged sum" (5 * !expect_sum) (Obs.Histogram.sum h);
  checki "merged buckets total" (5 * per_domain)
    (Array.fold_left ( + ) 0 (Obs.Histogram.buckets h))

(* -- snapshots and quantiles ---------------------------------------------- *)

let checkf eps = Alcotest.(check (float eps))

let snap_of vs =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.record h) vs;
  Obs.Histogram.snapshot h

module S = Obs.Histogram.Snapshot

let test_snapshot_empty () =
  let s = Obs.Histogram.snapshot (Obs.Histogram.create ()) in
  checki "count" 0 (S.count s);
  checkb "mean nan" true (Float.is_nan (S.mean s));
  checkb "min nan" true (Float.is_nan (S.min s));
  checkb "quantile nan" true (Float.is_nan (S.quantile s 0.5))

let test_snapshot_exact_stats () =
  let s = snap_of (List.map (fun ms -> ms * 1_000_000) [ 10; 20; 30; 40 ]) in
  checki "count" 4 (S.count s);
  checkf 1e-3 "mean" 25e6 (S.mean s);
  checkf 1e-3 "min" 10e6 (S.min s);
  checkf 1e-3 "max" 40e6 (S.max s)

let test_snapshot_negative_clamped () =
  let s = snap_of [ -5 ] in
  checkf 1e-9 "clamped to 0" 0. (S.mean s);
  checkf 1e-9 "quantile of the clamped value" 0. (S.quantile s 0.5)

(* Values log-uniform over [0, 2^40]: below 32 (exact slots), sub-µs and
   up to ~18 minutes of nanoseconds. The estimate must sit within 1/64
   of the exact nearest-rank order statistic's neighbour window. *)
let prop_quantile_error =
  let value = QCheck.Gen.(int_range 0 40 >>= fun e -> int_range 0 (1 lsl e)) in
  QCheck.Test.make ~name:"quantile within 1/64 of exact" ~count:300
    QCheck.(make Gen.(list_size (int_range 1 400) value))
    (fun vs ->
      let s = snap_of vs in
      let sorted = Array.of_list (List.sort compare vs) in
      let n = Array.length sorted in
      List.for_all
        (fun q ->
          let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
          let lo = float_of_int sorted.(max 0 (rank - 2)) in
          let hi = float_of_int sorted.(min (n - 1) rank) in
          let est = S.quantile s q in
          est >= lo -. (lo /. 64.) && est <= hi +. (hi /. 64.))
        [ 0.; 0.01; 0.25; 0.5; 0.9; 0.99; 0.999; 1. ])

let test_snapshot_marshal () =
  let s = snap_of [ 0; 7; 31; 32; 1_000; 47_386_000; 1 lsl 40 ] in
  let s' : Obs.Histogram.snapshot = Marshal.from_string (Marshal.to_string s []) 0 in
  checkb "round-trip equal" true (s = s');
  checkf 0. "p99 unchanged" (S.quantile s 0.99) (S.quantile s' 0.99)

(* Each of 5 domains records its own values into one histogram; the
   merged snapshot must equal one single-domain histogram fed all of
   them: the same slots, count, sum, min and max. *)
let test_snapshot_multidomain () =
  let h = Obs.Histogram.create () in
  let values k = List.init 20_000 (fun i -> ((i * 7919) + k) mod (1 lsl (20 + k))) in
  let ds =
    Array.init 4 (fun k ->
        Domain.spawn (fun () -> List.iter (Obs.Histogram.record h) (values (k + 1))))
  in
  List.iter (Obs.Histogram.record h) (values 0);
  Array.iter Domain.join ds;
  let whole = snap_of (List.concat_map values [ 0; 1; 2; 3; 4 ]) in
  checkb "snapshot = sum of shards" true (Obs.Histogram.snapshot h = whole);
  checki "count" 100_000 (S.count whole)

(* -- registry ----------------------------------------------------------- *)

let test_idempotent_registration () =
  let reg = Obs.Registry.create () in
  let c1 = Obs.Registry.counter reg ~labels:[ ("id", "3") ] "c_total" in
  let c2 = Obs.Registry.counter reg ~labels:[ ("id", "3") ] "c_total" in
  Obs.Counter.incr c1;
  Obs.Counter.incr c2;
  (* same name+labels = the same instrument (replica recovery re-attaches) *)
  checki "one instrument" 2 (Obs.Counter.value c1);
  let c3 = Obs.Registry.counter reg ~labels:[ ("id", "4") ] "c_total" in
  checki "different labels, fresh instrument" 0 (Obs.Counter.value c3);
  checkb "kind mismatch raises" true
    (try
       ignore (Obs.Registry.gauge reg ~labels:[ ("id", "3") ] "c_total");
       false
     with Invalid_argument _ -> true)

let test_collect_hook () =
  let reg = Obs.Registry.create () in
  let g = Obs.Registry.gauge reg "depth" in
  let c = Obs.Registry.counter reg "mirrored_total" in
  let source = ref 0 in
  Obs.Registry.on_collect reg (fun () ->
      Obs.Gauge.set g !source;
      Obs.Counter.mirror c (!source * 10));
  source := 5;
  let text = Obs.Registry.expose reg in
  checkb "gauge refreshed at scrape" true
    (String.length text > 0
    && Obs.Gauge.value g = 5
    && Obs.Counter.value c = 50);
  source := 9;
  ignore (Obs.Registry.expose reg : string);
  checki "hook re-runs each scrape" 9 (Obs.Gauge.value g)

(* -- exposition --------------------------------------------------------- *)

let test_expose_golden () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg ~help:"Things done." "things_total" in
  let g = Obs.Registry.gauge reg "depth" in
  let c2 = Obs.Registry.counter reg ~labels:[ ("id", "1") ] "acks_total" in
  let h = Obs.Registry.histogram reg "lat_ns" in
  Obs.Counter.add c 3;
  Obs.Gauge.set g 7;
  Obs.Counter.incr c2;
  List.iter (Obs.Histogram.record h) [ 1; 2; 5 ];
  let expected =
    String.concat "\n"
      [ "# TYPE acks_total counter";
        "acks_total{id=\"1\"} 1";
        "# TYPE depth gauge";
        "depth 7";
        "# TYPE lat_ns histogram";
        "lat_ns_bucket{le=\"1\"} 1";
        "lat_ns_bucket{le=\"3\"} 2";
        "lat_ns_bucket{le=\"7\"} 3";
        "lat_ns_bucket{le=\"+Inf\"} 3";
        "lat_ns_sum 8";
        "lat_ns_count 3";
        "# HELP things_total Things done.";
        "# TYPE things_total counter";
        "things_total 3";
        "" ]
  in
  checks "golden exposition" expected (Obs.Registry.expose reg)

let test_expose_idempotent () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "events_total" in
  let h = Obs.Registry.histogram reg ~labels:[ ("id", "0") ] "lat_ns" in
  Obs.Counter.add c 11;
  List.iter (Obs.Histogram.record h) [ 3; 9; 27; 81 ];
  let a = Obs.Registry.expose reg in
  let b = Obs.Registry.expose reg in
  checks "scrape is read-only: two idle scrapes byte-identical" a b

let test_dump_file () =
  let path = Filename.temp_file "obs" ".prom" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let reg = Obs.Registry.create () in
      Obs.Counter.add (Obs.Registry.counter reg "x_total") 5;
      Obs.Registry.dump_file reg path;
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      checks "dump = expose" (Obs.Registry.expose reg) text)

let () =
  Alcotest.run "obs"
    [ ( "instruments",
        [ Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram 5-domain hammer" `Quick test_histogram_multidomain ] );
      ( "histogram",
        [ Alcotest.test_case "empty" `Quick test_snapshot_empty;
          Alcotest.test_case "exact stats" `Quick test_snapshot_exact_stats;
          Alcotest.test_case "negative clamped" `Quick test_snapshot_negative_clamped;
          Alcotest.test_case "snapshot Marshal round-trip" `Quick test_snapshot_marshal;
          Alcotest.test_case "snapshot of 5 domains" `Quick test_snapshot_multidomain;
          QCheck_alcotest.to_alcotest ~long:false prop_quantile_error ] );
      ( "registry",
        [ Alcotest.test_case "idempotent registration" `Quick test_idempotent_registration;
          Alcotest.test_case "collect hook" `Quick test_collect_hook ] );
      ( "exposition",
        [ Alcotest.test_case "golden output" `Quick test_expose_golden;
          Alcotest.test_case "idempotent scrape" `Quick test_expose_idempotent;
          Alcotest.test_case "dump file" `Quick test_dump_file ] ) ]

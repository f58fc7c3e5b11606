(* Micro-benchmarks of the hot primitives, with a JSON perf baseline.

   Each entry measures one primitive under the simulator's hot paths —
   SHA-256 (the digest under every hash link, vote payload and Merkle
   node), the wire codec, Merkle roots, threshold shares and the event
   loop — via bechamel's OLS estimator, against both the monotonic clock
   and the minor allocator, so a change that trades time for garbage is
   visible.

     dune exec bench/main.exe -- --only micro
     dune exec bench/main.exe -- --only micro --fast
     dune exec bench/main.exe -- --only micro --check-regressions

   The run writes [BENCH_micro.json] (one benchmark per line: ns/op,
   MB/s for byte-throughput primitives, minor words/op) next to the
   invocation directory. With [--check-regressions] the run instead
   compares against the checked-in baseline and exits nonzero when any
   primitive got more than 2x slower; the baseline file is left
   untouched in that mode. *)

open Bechamel

type result = {
  name : string;
  ns_per_op : float;
  mb_per_s : float; (* 0 for primitives without a natural byte count *)
  minor_words_per_op : float;
}

let baseline_file = "BENCH_micro.json"
let regression_factor = 2.0

(* A pure ratio gate is meaningless for single-digit-ns primitives (the
   obs counter bump): scheduler jitter alone doubles them. A regression
   must also lose this many absolute ns/op to count. *)
let regression_floor_ns = 25.

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let estimate raw instance =
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let value = ref nan in
  Hashtbl.iter
    (fun _ est ->
      match Analyze.OLS.estimates est with
      | Some (v :: _) -> value := v
      | Some [] | None -> ())
    results;
  !value

let bench_one ~fast ?(bytes_per_op = 0) name f =
  let quota = if fast then 0.08 else 0.35 in
  let cfg = Benchmark.cfg ~limit:3000 ~quota:(Time.second quota) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock; Toolkit.Instance.minor_allocated ] in
  let raw = Benchmark.all cfg instances (Test.make ~name (Staged.stage f)) in
  let ns = estimate raw Toolkit.Instance.monotonic_clock in
  let words = estimate raw Toolkit.Instance.minor_allocated in
  let mb_per_s = if bytes_per_op = 0 then 0. else float_of_int bytes_per_op /. ns *. 1e3 in
  { name; ns_per_op = ns; mb_per_s; minor_words_per_op = words }

(* ------------------------------------------------------------------ *)
(* The benchmark set                                                   *)
(* ------------------------------------------------------------------ *)

let sha_chunk = 64

let run_all ~fast =
  let bench name ?bytes_per_op f = bench_one ~fast ?bytes_per_op name f in
  let s64 = String.make 64 'x' in
  let s1k = String.init 1024 (fun i -> Char.chr (i land 0xff)) in
  let s64k = String.init 65536 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let stream s () =
    let ctx = Crypto.Sha256.init () in
    let n = String.length s in
    let b = Bytes.unsafe_of_string s in
    let pos = ref 0 in
    while !pos < n do
      Crypto.Sha256.feed_bytes ctx ~off:!pos ~len:(min sha_chunk (n - !pos)) b;
      pos := !pos + sha_chunk
    done;
    Crypto.Sha256.finalize ctx
  in
  let rng = Sim.Rng.create 7L in
  let _pk, sk = Crypto.Signature.keygen rng in
  let tsetup, tkeys = Crypto.Threshold.keygen rng ~threshold:20 ~parties:31 in
  let a_share = Crypto.Threshold.sign_share tkeys.(0) "m" in
  let vote =
    Core.Msg.Prepare_vote
      { view = 3;
        sn = 17;
        block_hash = Crypto.Hash.of_string "block";
        share = Crypto.Threshold.sign_share tkeys.(1) "payload" }
  in
  let vote_wire = Core.Codec.encode_msg vote in
  let batches =
    List.init 8 (fun id ->
        Workload.Request.make ~id ~count:25 ~size_each:128 ~born:(Int64.of_int id) ())
  in
  let db = Core.Datablock.create ~sk ~creator:1 ~counter:1 ~now:0L batches in
  let db_wire = Core.Codec.encode_datablock db in
  let leaves = List.init 256 (fun i -> Crypto.Hash.of_string (string_of_int i)) in
  [ bench "sha256/64B" ~bytes_per_op:64 (fun () -> Crypto.Sha256.digest_string s64);
    bench "sha256/1KiB" ~bytes_per_op:1024 (fun () -> Crypto.Sha256.digest_string s1k);
    bench "sha256/64KiB" ~bytes_per_op:65536 (fun () -> Crypto.Sha256.digest_string s64k);
    bench "sha256/1KiB-stream64" ~bytes_per_op:1024 (stream s1k);
    bench "codec/encode-vote" ~bytes_per_op:(String.length vote_wire) (fun () ->
        Core.Codec.encode_msg vote);
    bench "codec/decode-vote" ~bytes_per_op:(String.length vote_wire) (fun () ->
        Core.Codec.decode_msg vote_wire);
    bench "codec/encode-datablock" ~bytes_per_op:(String.length db_wire) (fun () ->
        Core.Codec.encode_datablock db);
    bench "codec/decode-datablock" ~bytes_per_op:(String.length db_wire) (fun () ->
        Core.Codec.decode_datablock db_wire);
    bench "payload/prepare-vote" (fun () ->
        Core.Msg.prepare_payload ~view:3 ~block_hash:(Core.Datablock.hash db));
    bench "merkle/root-256" (fun () -> Crypto.Merkle.root leaves);
    bench "threshold/sign-share" (fun () -> Crypto.Threshold.sign_share tkeys.(0) "m");
    bench "threshold/verify-share" (fun () -> Crypto.Threshold.verify_share tsetup a_share "m");
    bench "engine/event"
      (let e = Sim.Engine.create () in
       fun () ->
         ignore (Sim.Engine.schedule e ~delay:0L (fun () -> ()));
         Sim.Engine.step e);
    (* the observability hot path: one counter bump per protocol event.
       [alloc_gate] holds this one to zero minor words/op. *)
    bench "obs/counter-bump"
      (let reg = Obs.Registry.create () in
       let c = Obs.Registry.counter reg "bench_events_total" in
       fun () -> Obs.Counter.incr c);
    bench "obs/gauge-set"
      (let reg = Obs.Registry.create () in
       let g = Obs.Registry.gauge reg "bench_depth" in
       fun () -> Obs.Gauge.set g 42);
    bench "obs/hist-record"
      (let reg = Obs.Registry.create () in
       let h = Obs.Registry.histogram reg "bench_lat_ns" in
       fun () -> Obs.Histogram.record h 48_213) ]

(* ------------------------------------------------------------------ *)
(* JSON baseline                                                       *)
(* ------------------------------------------------------------------ *)

let write_baseline path results =
  let oc = open_out path in
  output_string oc "{\n";
  output_string oc "  \"generated_by\": \"dune exec bench/main.exe -- --only micro\",\n";
  output_string oc "  \"benchmarks\": [\n";
  let n = List.length results in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"name\": %S, \"ns_per_op\": %.1f, \"mb_per_s\": %.2f, \"minor_words_per_op\": %.1f}%s\n"
        r.name r.ns_per_op r.mb_per_s r.minor_words_per_op
        (if i = n - 1 then "" else ","))
    results;
  output_string oc "  ]\n}\n";
  close_out oc

(* Reads exactly the shape [write_baseline] produces: one benchmark per
   line. Unparseable lines are skipped, so the file tolerates hand edits
   to the header fields. *)
let read_baseline path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let entries = ref [] in
    (try
       while true do
         let line = String.trim (input_line ic) in
         let line =
           if String.length line > 0 && line.[String.length line - 1] = ',' then
             String.sub line 0 (String.length line - 1)
           else line
         in
         match
           Scanf.sscanf_opt line
             "{\"name\": %S, \"ns_per_op\": %f, \"mb_per_s\": %f, \"minor_words_per_op\": %f}"
             (fun name ns mb words ->
               { name; ns_per_op = ns; mb_per_s = mb; minor_words_per_op = words })
         with
         | Some r -> entries := r :: !entries
         | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    Some (List.rev !entries)
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let render results =
  let rows =
    List.map
      (fun r ->
        [ r.name;
          Printf.sprintf "%.1f" r.ns_per_op;
          (if r.mb_per_s = 0. then "-" else Printf.sprintf "%.1f" r.mb_per_s);
          Printf.sprintf "%.1f" r.minor_words_per_op ])
      results
  in
  Stats.Text_table.render ~headers:[ "primitive"; "ns/op"; "MB/s"; "minor words/op" ] rows

let check_regressions ~baseline results =
  let failures =
    List.filter_map
      (fun r ->
        match List.find_opt (fun b -> b.name = r.name) baseline with
        | Some b
          when r.ns_per_op > regression_factor *. b.ns_per_op
               && r.ns_per_op -. b.ns_per_op > regression_floor_ns ->
          let factor = r.ns_per_op /. b.ns_per_op in
          Some
            ( Printf.sprintf "%s: %.1f ns/op vs baseline %.1f ns/op (%.1fx)" r.name r.ns_per_op
                b.ns_per_op factor,
              (r.name, factor) )
        | _ -> None)
      results
  in
  match failures with
  | [] ->
    Harness.say "micro: PASS no regressions > %.1fx against %s" regression_factor baseline_file;
    true
  | fs ->
    List.iter (fun (f, _) -> Harness.say "REGRESSION %s" f) fs;
    let worst_name, worst_factor =
      List.fold_left
        (fun ((_, wf) as acc) (_, (name, f)) -> if f > wf then (name, f) else acc)
        ("", 0.) fs
    in
    Harness.say "micro: FAIL %d/%d benchmarks regressed beyond %.1fx vs %s (worst %s %.1fx)"
      (List.length fs) (List.length results) regression_factor baseline_file worst_name
      worst_factor;
    false

(* The observability promise is "a counter bump costs nothing": gate it
   absolutely, independent of any baseline. OLS noise on a free op sits
   well under half a word. *)
let alloc_budget_words = 0.5

let check_alloc_gate results =
  match List.find_opt (fun r -> r.name = "obs/counter-bump") results with
  | None -> true
  | Some r when r.minor_words_per_op <= alloc_budget_words ->
    Harness.say "micro: PASS obs/counter-bump allocates %.2f minor words/op (budget %.1f)"
      r.minor_words_per_op alloc_budget_words;
    true
  | Some r ->
    Harness.say "micro: FAIL obs/counter-bump allocates %.2f minor words/op (budget %.1f)"
      r.minor_words_per_op alloc_budget_words;
    false

let run ~fast ~check =
  let results = run_all ~fast in
  Harness.say "%s" (render results);
  Harness.say "";
  if check then begin
    let alloc_ok = check_alloc_gate results in
    (match read_baseline baseline_file with
     | None | Some [] ->
       Harness.say "no baseline %s found; writing a fresh one" baseline_file;
       write_baseline baseline_file results
     | Some baseline -> if not (check_regressions ~baseline results) then exit 1);
    if not alloc_ok then exit 1
  end
  else begin
    write_baseline baseline_file results;
    Harness.say "baseline written to %s" baseline_file
  end

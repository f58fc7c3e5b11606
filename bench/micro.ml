(* Micro-benchmarks of the hot primitives, with a JSON perf baseline.

   Each entry measures one primitive under the simulator's hot paths —
   SHA-256 (the digest under every hash link, vote payload and Merkle
   node), the wire codec, Merkle roots, threshold shares, the simulator's
   event loop and one round of the TCP plane's event loop. Time comes
   from bechamel's OLS estimator on the monotonic clock; allocation from
   a [Gc.minor_words] delta over a fixed-count loop run next to it, so a
   change that trades time for garbage is visible.

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

(* Minor words per call of [f]. Bechamel's [minor_allocated] reads
   [(Gc.quick_stat ()).minor_words], which on OCaml 5 leaves out the live
   minor heap and so reads 0 for most rows; [Gc.minor_words] counts it.
   The loop itself allocates nothing. *)
let words_per_op f =
  let runs = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int runs

let bench_one ~fast ?(bytes_per_op = 0) name f =
  let quota = if fast then 0.08 else 0.35 in
  let cfg = Benchmark.cfg ~limit:3000 ~quota:(Time.second quota) ~kde:None () in
  let clock = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ clock ] (Test.make ~name (Staged.stage f)) in
  let ns = estimate raw clock in
  let mb_per_s = if bytes_per_op = 0 then 0. else float_of_int bytes_per_op /. ns *. 1e3 in
  { name; ns_per_op = ns; mb_per_s; minor_words_per_op = words_per_op f }

(* ------------------------------------------------------------------ *)
(* The benchmark set                                                   *)
(* ------------------------------------------------------------------ *)

(* One [Transport.Loop] round with [fds] watched for reading, both ends
   of [fds / 2] idle socketpairs, one of which holds an undrained byte,
   so every round dispatches once and never blocks. 30 and 92 are the
   fd counts of the n = 4 and n = 7 TCP clusters, 480 saturate-n16's: a
   round that pays per watched fd shows up as growth across the three. *)
let loop_round ~fast fds =
  let loop = Transport.Loop.create () in
  let pairs = List.init (fds / 2) (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0) in
  List.iter
    (fun (a, b) ->
      Transport.Loop.watch_read loop a ignore;
      Transport.Loop.watch_read loop b ignore)
    pairs;
  (match pairs with
  | (_, b) :: _ -> ignore (Unix.write_substring b "x" 0 1 : int)
  | [] -> ());
  let once = ref false in
  let more () =
    let m = !once in
    once := false;
    m
  in
  let r =
    bench_one ~fast (Printf.sprintf "loop/round-%dfd" fds) (fun () ->
        once := true;
        Transport.Loop.run_while loop more)
  in
  List.iter
    (fun (a, b) ->
      Transport.Loop.unwatch loop a;
      Transport.Loop.unwatch loop b;
      Unix.close a;
      Unix.close b)
    pairs;
  r

(* A fresh copy of [db] as the decode path makes it: no memo warm, so
   every op pays the full check. *)
let fresh_copy (db : Core.Datablock.t) =
  let h = db.header in
  Core.Datablock.of_wire ~creator:h.creator ~counter:h.counter ~digest:h.digest
    ~created_at:db.created_at ~signature:db.signature db.batches

(* One pool round trip as [Verify.pooled] makes it for a job above its
   inline cut, with a no-op job: hand the task to the worker, wait on the
   notify fd as the event loop does, drain the continuation. *)
let handoff pool =
  let got = ref false in
  let fd = Exec.Pool.notify_fd pool in
  fun () ->
    got := false;
    Exec.Pool.async pool (fun () -> true) (fun ok -> got := ok);
    while not !got do
      ignore (Unix.select [ fd ] [] [] 1.0);
      ignore (Exec.Pool.drain pool : int)
    done

let run_all ~fast =
  let bench name ?bytes_per_op f = bench_one ~fast ?bytes_per_op name f in
  let s64 = String.make 64 'x' in
  let s1k = String.init 1024 (fun i -> Char.chr (i land 0xff)) in
  let s64k = String.init 65536 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let rng = Sim.Rng.create 7L in
  let pk, sk = Crypto.Signature.keygen rng in
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
  (* [leader-crash-n7]'s datablock fill: seven one-request batches *)
  let db7 =
    Core.Datablock.create ~sk ~creator:0 ~counter:1 ~now:0L
      (List.init 7 (fun id ->
           Workload.Request.make ~id ~count:1 ~size_each:128 ~born:(Int64.of_int (1000 * id)) ()))
  in
  let pks7 = [| pk |] in
  [ bench "sha256/64B" ~bytes_per_op:64 (fun () -> Crypto.Sha256.digest_string s64);
    bench "sha256/1KiB" ~bytes_per_op:1024 (fun () -> Crypto.Sha256.digest_string s1k);
    bench "sha256/64KiB" ~bytes_per_op:65536 (fun () -> Crypto.Sha256.digest_string s64k);
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
    bench "datablock/verify-7" (fun () -> Core.Datablock.verify ~pks:pks7 (fresh_copy db7));
    (* the worker domain lives only for this row, so it cannot tax the
       other rows' minor collections *)
    (let pool = Exec.Pool.create ~domains:1 () in
     Fun.protect ~finally:(fun () -> Exec.Pool.shutdown pool) (fun () ->
         bench "verify/handoff" (handoff pool)));
    bench "engine/event"
      (let e = Sim.Engine.create () in
       fun () ->
         ignore (Sim.Engine.schedule e ~delay:0L (fun () -> ()));
         Sim.Engine.step e);
    (* the observability hot path: one bump, set or record per protocol
       event. [alloc_gate] holds these three to zero minor words/op. *)
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
       fun () -> Obs.Histogram.record h 48_213);
    loop_round ~fast 30;
    loop_round ~fast 92;
    loop_round ~fast 480 ]

(* ------------------------------------------------------------------ *)
(* Baseline and gates                                                  *)
(* ------------------------------------------------------------------ *)

(* A pure ratio gate is meaningless for single-digit-ns primitives (the
   obs counter bump): scheduler jitter alone doubles them. A regression
   must also lose 25 absolute ns/op to count. *)
let schema =
  Bench_gate.
    [ str ~key:true "name" (fun (r : result) -> r.name);
      float 1 "ns_per_op" ~gate:Lower_is_better ~floor:25. (fun r -> r.ns_per_op);
      float 2 "mb_per_s" (fun r -> r.mb_per_s);
      float 1 "minor_words_per_op" (fun r -> r.minor_words_per_op) ]

(* The observability promise is "an instrument update costs nothing":
   gate the three hot-path rows absolutely, independent of any baseline.
   The words/op loop counts exactly, so a free op reads 0. *)
let alloc_budget_words = 0.5
let alloc_free = [ "obs/counter-bump"; "obs/gauge-set"; "obs/hist-record" ]

(* The gate is only as good as the counting: a [ref] is two words
   (header and field), so the loop must read it within the budget. *)
let alloc_self_check () =
  let words = words_per_op (fun () -> ref 0) in
  if Float.abs (words -. 2.) <= alloc_budget_words then []
  else
    [ Bench_gate.failure "words_per_op self-check"
        (Printf.sprintf "a ref reads %.2f minor words/op, not 2" words) ]

let alloc_gate results =
  alloc_self_check ()
  @ List.filter_map
      (fun r ->
        if List.mem r.name alloc_free && not (r.minor_words_per_op <= alloc_budget_words) then
          Some
            (Bench_gate.failure
               (Printf.sprintf "name=%s minor_words_per_op" r.name)
               (Printf.sprintf "%s allocates %.2f minor words/op (budget %.1f)" r.name
                  r.minor_words_per_op alloc_budget_words))
        else None)
      results

(* The SHA-256 compressor the rows ran on, recorded in the baseline. The
   rows that hash are only compared against a baseline from the same
   compressor: the portable one is several times slower than SHA-NI, and
   is not a regression of the code. *)
let host = Printf.sprintf "{\"sha256\": %S}" Crypto.Sha256.backend

let hashes name =
  List.exists
    (fun prefix -> String.starts_with ~prefix name)
    [ "sha256/"; "merkle/"; "threshold/"; "datablock/" ]

let file = "BENCH_micro.json"

let run ~fast ~check =
  let results = run_all ~fast in
  let gated =
    match List.assoc_opt "host" (Bench_gate.read_header file) with
    | Some h when check && h <> host ->
      Format.printf "%s was recorded on host %s, this is %s: hashing rows not compared@." file h
        host;
      List.filter (fun r -> not (hashes r.name)) results
    | _ -> results
  in
  Bench_gate.finish ~id:"micro" ~file ~check ~header:[ ("host", host) ]
    ~absolute:(alloc_gate results) [ Bench_gate.table schema gated ]

(* The durable store: WAL framing, group commit, segment rotation,
   snapshot truncation — and the recovery scanner's totality, fuzzed in
   the Frame.reader style (bit flips, random mutations, truncations).
   The property throughout: [Wal.load] never raises on any file content
   and always returns a clean prefix of what was appended, with replay
   deterministic (two loads of one directory agree byte-for-byte). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

module Wal = Store.Wal
module Store_file = Store.Store_file

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "leopard-store-test.%d.%d" (Unix.getpid ()) !counter)

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> Store_file.remove_dir dir) (fun () -> f dir)

let record i = Printf.sprintf "record-%04d-%s" i (String.make (i mod 40) 'x')

let records n = List.init n (fun i -> record i)

let is_prefix ~of_:full xs =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> String.equal x y && go (xs, ys)
  in
  go (xs, full)

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

let test_crc32_vectors () =
  (* The IEEE 802.3 check value, and the empty string. *)
  checki "check value" 0xCBF43926 (Store.Crc32.string "123456789");
  checki "empty" 0 (Store.Crc32.string "");
  (* Incremental update over split points agrees with one-shot. *)
  let s = "the quick brown fox jumps over the lazy dog" in
  let whole = Store.Crc32.string s in
  for cut = 0 to String.length s do
    let c = Store.Crc32.update 0 s ~pos:0 ~len:cut in
    let c = Store.Crc32.update c s ~pos:cut ~len:(String.length s - cut) in
    checki (Printf.sprintf "split at %d" cut) whole c
  done

(* ------------------------------------------------------------------ *)
(* WAL semantics                                                       *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  with_dir (fun dir ->
      let wal = Wal.create ~dir () in
      let rs = records 50 in
      List.iter (Wal.append wal) rs;
      Wal.close wal;
      let snap, got, corruption = Wal.load ~dir in
      checkb "no snapshot" true (snap = None);
      checkb "no corruption" true (corruption = None);
      checkb "all records in order" true (got = rs))

let test_crash_drops_unflushed () =
  with_dir (fun dir ->
      let wal = Wal.create ~dir () in
      let rs = records 20 in
      List.iteri
        (fun i r ->
          Wal.append wal r;
          if i = 9 then Wal.flush wal)
        rs;
      (* Crash with 10 records flushed and 10 still buffered. *)
      Wal.crash wal;
      let _, got, corruption = Wal.load ~dir in
      checkb "clean prefix on disk" true (corruption = None);
      checkb "flushed prefix survives" true
        (got = List.filteri (fun i _ -> i < 10) rs);
      (* Close after crash is a no-op, not a resurrection. *)
      Wal.close wal;
      let _, again, _ = Wal.load ~dir in
      checkb "close after crash writes nothing" true (got = again))

let test_segment_rotation () =
  with_dir (fun dir ->
      (* ~54-byte frames against a 256-byte segment bound: plenty of
         rotations. *)
      let wal = Wal.create ~segment_bytes:256 ~dir () in
      let rs = records 80 in
      List.iter (Wal.append wal) rs;
      Wal.close wal;
      let seg_files =
        List.filter
          (fun f -> Filename.check_suffix f ".log")
          (Array.to_list (Sys.readdir dir))
      in
      checkb "multiple segments" true (List.length seg_files > 3);
      let _, got, corruption = Wal.load ~dir in
      checkb "no corruption across segments" true (corruption = None);
      checkb "order preserved across segments" true (got = rs))

let test_snapshot_truncates () =
  with_dir (fun dir ->
      let wal = Wal.create ~segment_bytes:256 ~dir () in
      let before = records 40 in
      List.iter (Wal.append wal) before;
      Wal.save_snapshot wal "snapshot-state";
      let after = List.init 10 (fun i -> record (1000 + i)) in
      List.iter (Wal.append wal) after;
      Wal.close wal;
      let snap, got, corruption = Wal.load ~dir in
      checkb "snapshot recovered" true (snap = Some "snapshot-state");
      checkb "no corruption" true (corruption = None);
      checkb "only post-snapshot records replayed" true (got = after);
      (* The subsumed segments are actually gone from the directory. *)
      let segs =
        List.filter
          (fun f -> Filename.check_suffix f ".log")
          (Array.to_list (Sys.readdir dir))
      in
      checkb "pre-snapshot segments deleted" true (List.length segs <= 2))

(* WAL instrumentation: appends and fsyncs land in the latency
   histograms, rotations and snapshots bump their counters — and the
   same registry handed to two WALs shares the (unlabeled) instruments
   instead of raising on re-registration. *)
let test_wal_metrics () =
  with_dir (fun dir ->
      let reg = Obs.Registry.create () in
      let wal = Wal.create ~segment_bytes:256 ~fsync:Wal.Always ~obs:reg ~dir () in
      let rs = records 80 in
      List.iter (Wal.append wal) rs;
      Wal.save_snapshot wal "state";
      Wal.close wal;
      let append_h = Obs.Registry.histogram reg "leopard_store_append_latency_ns" in
      let fsync_h = Obs.Registry.histogram reg "leopard_store_fsync_latency_ns" in
      let rotations = Obs.Registry.counter reg "leopard_store_rotations_total" in
      let snapshots = Obs.Registry.counter reg "leopard_store_snapshots_total" in
      checki "every append timed" 80 (Obs.Histogram.count append_h);
      checkb "fsyncs timed (Always policy)" true (Obs.Histogram.count fsync_h > 0);
      checkb "rotations counted" true (Obs.Counter.value rotations > 3);
      checki "snapshot counted" 1 (Obs.Counter.value snapshots);
      (* a second WAL on the same registry shares the instruments *)
      with_dir (fun dir2 ->
          let wal2 = Wal.create ~obs:reg ~dir:dir2 () in
          Wal.append wal2 (record 9999);
          Wal.close wal2;
          checki "shared append histogram" 81 (Obs.Histogram.count append_h)))

(* The snapshot's fsync follows the WAL's policy: none under [Never]
   (the rename alone, like every other write of that policy), one
   before the rename under [Always] and [Interval]. No records are
   appended, so the snapshot is the only fsync candidate. *)
let test_snapshot_fsync_policy () =
  List.iter
    (fun (label, fsync, expected) ->
      with_dir (fun dir ->
          let reg = Obs.Registry.create () in
          let wal = Wal.create ~fsync ~obs:reg ~dir () in
          Wal.save_snapshot wal "state";
          let fsyncs =
            Obs.Histogram.count (Obs.Registry.histogram reg "leopard_store_fsync_latency_ns")
          in
          Wal.close wal;
          checki (label ^ ": snapshot fsyncs") expected fsyncs;
          let snap, _, _ = Wal.load ~dir in
          checkb (label ^ ": snapshot published") true (snap = Some "state")))
    [ ("never", Wal.Never, 0); ("always", Wal.Always, 1); ("interval", Wal.Interval 1_000_000, 1) ]

(* [leopard_store_snapshot_bytes] gauges the last snapshot written. *)
let test_snapshot_bytes_gauge () =
  with_dir (fun dir ->
      let reg = Obs.Registry.create () in
      let wal = Wal.create ~obs:reg ~dir () in
      let gauge = Obs.Registry.gauge reg "leopard_store_snapshot_bytes" in
      checki "zero before any snapshot" 0 (Obs.Gauge.value gauge);
      Wal.save_snapshot wal (String.make 1000 's');
      checki "first snapshot size" 1000 (Obs.Gauge.value gauge);
      Wal.save_snapshot wal (String.make 300 's');
      checki "tracks the last snapshot, not the largest" 300 (Obs.Gauge.value gauge);
      Wal.close wal;
      checkb "exposed in the metrics dump" true
        (List.mem "leopard_store_snapshot_bytes 300"
           (String.split_on_char '\n' (Obs.Registry.expose reg))))

let test_reopen_starts_fresh_segment () =
  with_dir (fun dir ->
      let w1 = Wal.create ~dir () in
      List.iter (Wal.append w1) (records 5);
      Wal.close w1;
      let w2 = Wal.create ~dir () in
      checkb "fresh segment after reopen" true (Wal.dir w2 = dir);
      List.iter (Wal.append w2) (List.init 5 (fun i -> record (100 + i)));
      Wal.close w2;
      let _, got, corruption = Wal.load ~dir in
      checkb "no corruption" true (corruption = None);
      checki "both incarnations replayed" 10 (List.length got))

(* Checkpoint saves delete from the WAL's own list of live files, not a
   directory listing: segments and a snapshot left by an earlier process
   (seeded by the reopen's scan) must still go at the first save, and
   after many saves exactly one snapshot and the segments at or above
   it remain. *)
let test_saves_prune_earlier_files () =
  with_dir (fun dir ->
      let w1 = Wal.create ~segment_bytes:256 ~dir () in
      List.iter (Wal.append w1) (records 40);
      Wal.save_snapshot w1 "first-process";
      List.iter (Wal.append w1) (records 20);
      Wal.close w1;
      let w2 = Wal.create ~segment_bytes:256 ~dir () in
      let files () = List.sort compare (Array.to_list (Sys.readdir dir)) in
      let number f = Scanf.sscanf f "%_[a-z]-%d.%_s" Fun.id in
      let check_layout label =
        let snaps = List.filter (fun f -> Filename.check_suffix f ".dat") (files ()) in
        let segs = List.filter (fun f -> Filename.check_suffix f ".log") (files ()) in
        checki (label ^ ": one snapshot") 1 (List.length snaps);
        checki (label ^ ": nothing else") (List.length (files ()))
          (List.length snaps + List.length segs);
        let snap = number (List.hd snaps) in
        checkb (label ^ ": segments at or above the snapshot") true
          (List.for_all (fun f -> number f >= snap) segs)
      in
      for i = 1 to 12 do
        List.iter (Wal.append w2) (List.init (i mod 5) (fun j -> record (100 * i + j)));
        Wal.save_snapshot w2 (Printf.sprintf "state-%d" i);
        check_layout (Printf.sprintf "save %d" i)
      done;
      List.iter (Wal.append w2) (records 3);
      Wal.close w2;
      let snap, got, corruption = Wal.load ~dir in
      checkb "last snapshot recovered" true (snap = Some "state-12");
      checkb "no corruption" true (corruption = None);
      checkb "records after it replayed" true (got = records 3))

(* ------------------------------------------------------------------ *)
(* Recovery fuzz: the scanner must be total and prefix-clean           *)
(* ------------------------------------------------------------------ *)

(* One closed single-segment log to mutate, plus its on-disk bytes. *)
let build_victim dir =
  let wal = Wal.create ~dir () in
  let rs = records 16 in
  List.iter (Wal.append wal) rs;
  Wal.close wal;
  let seg =
    List.find
      (fun f -> Filename.check_suffix f ".log")
      (Array.to_list (Sys.readdir dir))
  in
  let path = Filename.concat dir seg in
  let ic = In_channel.open_bin path in
  let data = In_channel.input_all ic in
  In_channel.close ic;
  (rs, path, data)

let write_file path data =
  let oc = Out_channel.open_bin path in
  Out_channel.output_string oc data;
  Out_channel.close oc

(* Load under mutation: never an exception, always a clean prefix of the
   original append sequence, and deterministic (a second load agrees). *)
let load_mutated ~label ~originals dir =
  match Wal.load ~dir with
  | exception ex ->
    Alcotest.failf "load raised %s on %s" (Printexc.to_string ex) label
  | snap, got, corruption ->
    checkb (label ^ ": no snapshot invented") true (snap = None);
    checkb (label ^ ": clean prefix") true (is_prefix ~of_:originals got);
    checkb (label ^ ": full recovery only when uncorrupted") true
      (corruption <> None || List.length got = List.length originals);
    let snap', got', corruption' = Wal.load ~dir in
    checkb (label ^ ": replay deterministic") true
      (snap = snap' && got = got' && corruption = corruption')

let test_fuzz_bit_flips () =
  with_dir (fun dir ->
      let originals, path, data = build_victim dir in
      for byte = 0 to String.length data - 1 do
        for bit = 0 to 7 do
          let buf = Bytes.of_string data in
          Bytes.set buf byte (Char.chr (Char.code data.[byte] lxor (1 lsl bit)));
          write_file path (Bytes.to_string buf);
          load_mutated ~label:(Printf.sprintf "flip %d.%d" byte bit) ~originals dir
        done
      done)

let test_fuzz_random_mutations () =
  with_dir (fun dir ->
      let originals, path, data = build_victim dir in
      let rng = Sim.Rng.create 0xFEEDL in
      for round = 1 to 300 do
        let buf = Bytes.of_string data in
        let hits = 1 + Sim.Rng.int rng 8 in
        for _ = 1 to hits do
          let pos = Sim.Rng.int rng (Bytes.length buf) in
          Bytes.set buf pos (Char.chr (Sim.Rng.int rng 256))
        done;
        write_file path (Bytes.to_string buf);
        load_mutated ~label:(Printf.sprintf "mutation round %d" round) ~originals
          dir
      done)

let test_fuzz_truncations () =
  with_dir (fun dir ->
      let originals, path, data = build_victim dir in
      for len = 0 to String.length data - 1 do
        write_file path (String.sub data 0 len);
        match Wal.load ~dir with
        | exception ex ->
          Alcotest.failf "load raised %s at truncation %d" (Printexc.to_string ex)
            len
        | _, got, corruption ->
          checkb
            (Printf.sprintf "truncation %d: clean prefix" len)
            true
            (is_prefix ~of_:originals got);
          (* A cut at a frame boundary is a shorter-but-clean log; a cut
             inside a frame must be reported. *)
          checkb
            (Printf.sprintf "truncation %d: torn tail reported iff mid-frame" len)
            true
            (match corruption with
            | None -> true
            | Some c -> c.Wal.off <= len)
      done)

let test_fuzz_garbage_appended () =
  with_dir (fun dir ->
      let originals, path, data = build_victim dir in
      let rng = Sim.Rng.create 0xA11CEL in
      for round = 1 to 50 do
        let extra = 1 + Sim.Rng.int rng 64 in
        let garbage = String.init extra (fun _ -> Char.chr (Sim.Rng.int rng 256)) in
        write_file path (data ^ garbage);
        match Wal.load ~dir with
        | exception ex ->
          Alcotest.failf "load raised %s on garbage round %d"
            (Printexc.to_string ex) round
        | _, got, corruption ->
          checkb
            (Printf.sprintf "garbage round %d: full prefix then stop" round)
            true
            (got = originals && corruption <> None)
      done)

(* ------------------------------------------------------------------ *)
(* Store_file: Codec-typed records over the WAL                        *)
(* ------------------------------------------------------------------ *)

let mk_vote sn =
  let rng = Sim.Rng.create 11L in
  let _setup, keys = Crypto.Threshold.keygen rng ~threshold:3 ~parties:4 in
  let hash = Crypto.Hash.of_string "store-test-block" in
  let share =
    Crypto.Threshold.sign_share keys.(0)
      (Core.Msg.prepare_payload ~view:1 ~block_hash:hash)
  in
  Core.Msg.Prepare_vote { view = 1; sn; block_hash = hash; share }

let test_store_file_roundtrip () =
  with_dir (fun dir ->
      let st = Store_file.create ~dir () in
      let rs =
        [ Core.Store.Db_counter 7;
          Core.Store.Entered_view 3;
          Core.Store.Logged_msg (mk_vote 12) ]
      in
      List.iter (Store_file.log st) rs;
      Store_file.close st;
      let snap, got = Store_file.load_dir dir in
      checkb "no snapshot" true (snap = None);
      checki "all records decoded" (List.length rs) (List.length got);
      checkb "scalar records round-trip" true
        (match got with
        | [ Core.Store.Db_counter 7; Core.Store.Entered_view 3;
            Core.Store.Logged_msg (Core.Msg.Prepare_vote { sn; _ }) ] ->
          sn = 12
        | _ -> false))

let test_store_file_sink_enabled () =
  with_dir (fun dir ->
      let st = Store_file.create ~dir () in
      let sink = Store_file.sink st in
      checkb "file sink enabled" true sink.Core.Store.enabled;
      sink.Core.Store.log (Core.Store.Db_counter 1);
      sink.Core.Store.sync ();
      Store_file.close st;
      let _, got = Store_file.load_dir dir in
      checki "sink log lands" 1 (List.length got))

let test_torn_tail_wrapper () =
  let sink = Core.Store.mem () in
  for i = 1 to 10 do
    sink.Core.Store.log (Core.Store.Db_counter i)
  done;
  let torn = Core.Store.with_torn_tail ~drop:3 sink in
  let _, got = torn.Core.Store.load () in
  checki "tail dropped" 7 (List.length got);
  checkb "surviving prefix intact" true
    (got = List.init 7 (fun i -> Core.Store.Db_counter (i + 1)))

let () =
  Alcotest.run "store"
    [ ( "crc32",
        [ Alcotest.test_case "vectors and incremental" `Quick test_crc32_vectors ] );
      ( "wal",
        [ Alcotest.test_case "round trip" `Quick test_roundtrip;
          Alcotest.test_case "crash drops unflushed" `Quick
            test_crash_drops_unflushed;
          Alcotest.test_case "segment rotation" `Quick test_segment_rotation;
          Alcotest.test_case "snapshot truncates" `Quick test_snapshot_truncates;
          Alcotest.test_case "metrics instruments" `Quick test_wal_metrics;
          Alcotest.test_case "reopen starts fresh segment" `Quick
            test_reopen_starts_fresh_segment;
          Alcotest.test_case "snapshot fsync follows policy" `Quick
            test_snapshot_fsync_policy;
          Alcotest.test_case "snapshot bytes gauge" `Quick test_snapshot_bytes_gauge;
          Alcotest.test_case "saves prune an earlier process's files" `Quick
            test_saves_prune_earlier_files ] );
      ( "recovery fuzz",
        [ Alcotest.test_case "bit flips" `Quick test_fuzz_bit_flips;
          Alcotest.test_case "random mutations" `Quick test_fuzz_random_mutations;
          Alcotest.test_case "truncations" `Quick test_fuzz_truncations;
          Alcotest.test_case "garbage tail" `Quick test_fuzz_garbage_appended ] );
      ( "store file",
        [ Alcotest.test_case "codec round trip" `Quick test_store_file_roundtrip;
          Alcotest.test_case "sink wiring" `Quick test_store_file_sink_enabled;
          Alcotest.test_case "torn-tail wrapper" `Quick test_torn_tail_wrapper ] )
    ]

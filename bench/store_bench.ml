(* Durable-store benchmark: WAL append throughput under each fsync
   policy, and recovery time as a function of log length, with a JSON
   baseline and regression gates.

   Two parts:

   - Append throughput: a [Store.Store_file] in a temp directory,
     appending Codec-encoded prepare-vote records (the hot record on the
     vote path) with a flush every 64 appends — the group-commit cadence
     the cluster's loop tick produces — under [Never], [Interval 50ms]
     and [Always]. [Always] fsyncs per record, so its leg uses a much
     smaller count; its records/s is the price of synchronous
     durability, not a regression of the others.

   - Recovery: logs of increasing length are written, closed, and read
     back with [Store_file.load_dir] — the exact scan [Replica.recover]
     runs. The gate also checks the scan is lossless (every record
     written comes back).

     dune exec bench/main.exe -- --only store
     dune exec bench/main.exe -- --only store --check-regressions

   The run writes [BENCH_store.json]; with [--check-regressions] it
   compares against the checked-in baseline and exits nonzero when any
   leg got more than 2x slower (append records/s, recovery records/s). *)

type append_row = {
  policy : string; (* "never" | "interval" | "always" *)
  records : int;
  wall_s : float;
  records_per_s : float;
}

type recovery_row = {
  log_records : int;
  recovered : int;
  rec_wall_s : float;
  rec_records_per_s : float;
}

let flush_every = 64

(* ------------------------------------------------------------------ *)
(* Workload: a realistic vote record                                   *)
(* ------------------------------------------------------------------ *)

(* The record the vote path logs before every prepare send: a threshold
   share over a view/serial/hash triple. Rebuilt per append so encoding
   cost is included, as on the live path. *)
let mk_record =
  let rng = Sim.Rng.create 7L in
  let _setup, keys = Crypto.Threshold.keygen rng ~threshold:3 ~parties:4 in
  let hash = Crypto.Hash.of_string "store-bench-block" in
  fun i ->
    let share =
      Crypto.Threshold.sign_share keys.(0)
        (Core.Msg.prepare_payload ~view:1 ~block_hash:hash)
    in
    Core.Store.Logged_msg
      (Core.Msg.Prepare_vote { view = 1; sn = i; block_hash = hash; share })

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "leopard-store-bench.%d.%d" (Unix.getpid ()) !counter)

(* ------------------------------------------------------------------ *)
(* Append throughput per fsync policy                                  *)
(* ------------------------------------------------------------------ *)

let run_append_leg ~policy ~name ~records () =
  let dir = fresh_dir () in
  let st = Store.Store_file.create ~fsync:policy ~dir () in
  let wall0 = Unix.gettimeofday () in
  for i = 1 to records do
    Store.Store_file.log st (mk_record i);
    if i mod flush_every = 0 then Store.Store_file.flush st
  done;
  Store.Store_file.close st;
  let wall_s = Unix.gettimeofday () -. wall0 in
  Store.Store_file.remove_dir dir;
  { policy = name;
    records;
    wall_s;
    records_per_s =
      (if wall_s <= 0. then 0. else float_of_int records /. wall_s) }

(* ------------------------------------------------------------------ *)
(* Recovery time vs log length                                         *)
(* ------------------------------------------------------------------ *)

let run_recovery_leg ~records () =
  let dir = fresh_dir () in
  let st = Store.Store_file.create ~fsync:Store.Wal.Never ~dir () in
  for i = 1 to records do
    Store.Store_file.log st (mk_record i);
    if i mod flush_every = 0 then Store.Store_file.flush st
  done;
  Store.Store_file.close st;
  let wall0 = Unix.gettimeofday () in
  let _snap, recs = Store.Store_file.load_dir dir in
  let rec_wall_s = Unix.gettimeofday () -. wall0 in
  Store.Store_file.remove_dir dir;
  let recovered = List.length recs in
  { log_records = records;
    recovered;
    rec_wall_s;
    rec_records_per_s =
      (if rec_wall_s <= 0. then 0. else float_of_int recovered /. rec_wall_s) }

(* ------------------------------------------------------------------ *)
(* Baseline and gates                                                  *)
(* ------------------------------------------------------------------ *)

let append_schema =
  Bench_gate.
    [ str ~key:true "policy" (fun r -> r.policy);
      int "records" (fun r -> r.records);
      float 3 "wall_s" (fun r -> r.wall_s);
      float 0 "records_per_s" ~gate:Higher_is_better (fun r -> r.records_per_s) ]

let recovery_schema =
  Bench_gate.
    [ int ~key:true "log_records" (fun r -> r.log_records);
      int "recovered" (fun r -> r.recovered);
      float 3 "rec_wall_s" (fun r -> r.rec_wall_s);
      float 0 "rec_records_per_s" ~gate:Higher_is_better (fun r -> r.rec_records_per_s) ]

let lossless_gate recovery_rows =
  List.filter_map
    (fun r ->
      if r.recovered <> r.log_records then
        Some
          (Bench_gate.failure
             (Printf.sprintf "log_records=%d recovered" r.log_records)
             (Printf.sprintf "recovery lost records: %d written, %d recovered" r.log_records
                r.recovered))
      else None)
    recovery_rows

let run ~fast ~check =
  let buffered = if fast then 20_000 else 100_000 in
  let synced = if fast then 300 else 2_000 in
  let append_rows =
    List.map
      (fun (policy, name, records) ->
        let r = run_append_leg ~policy ~name ~records () in
        Harness.say "  append fsync=%-8s %7d records in %.3fs (%.0f records/s)"
          r.policy r.records r.wall_s r.records_per_s;
        r)
      [ (Store.Wal.Never, "never", buffered);
        (Store.Wal.Interval 50_000_000, "interval", buffered);
        (Store.Wal.Always, "always", synced) ]
  in
  let recovery_rows =
    List.map
      (fun records ->
        let r = run_recovery_leg ~records () in
        Harness.say "  recover %6d records in %.3fs (%.0f records/s)"
          r.log_records r.rec_wall_s r.rec_records_per_s;
        r)
      (if fast then [ 1_000; 5_000 ] else [ 1_000; 10_000; 50_000 ])
  in
  Harness.say "";
  Bench_gate.finish ~id:"store" ~file:"BENCH_store.json" ~check
    ~absolute:(lossless_gate recovery_rows)
    [ Bench_gate.table append_schema append_rows;
      Bench_gate.table recovery_schema recovery_rows ]

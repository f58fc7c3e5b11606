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

let baseline_file = "BENCH_store.json"
let regression_factor = 2.0
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
(* JSON baseline (same line-per-entry shape as BENCH_verify.json)      *)
(* ------------------------------------------------------------------ *)

let write_baseline path append_rows recovery_rows =
  let oc = open_out path in
  output_string oc "{\n";
  output_string oc "  \"generated_by\": \"dune exec bench/main.exe -- --only store\",\n";
  output_string oc "  \"benchmarks\": [\n";
  List.iter
    (fun r ->
      Printf.fprintf oc
        "    {\"policy\": \"%s\", \"records\": %d, \"wall_s\": %.3f, \"records_per_s\": %.0f},\n"
        r.policy r.records r.wall_s r.records_per_s)
    append_rows;
  let count = List.length recovery_rows in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"log_records\": %d, \"recovered\": %d, \"rec_wall_s\": %.3f, \
         \"rec_records_per_s\": %.0f}%s\n"
        r.log_records r.recovered r.rec_wall_s r.rec_records_per_s
        (if i = count - 1 then "" else ","))
    recovery_rows;
  output_string oc "  ]\n}\n";
  close_out oc

let read_baseline path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let appends = ref [] and recoveries = ref [] in
    (try
       while true do
         let line = String.trim (input_line ic) in
         let line =
           if String.length line > 0 && line.[String.length line - 1] = ',' then
             String.sub line 0 (String.length line - 1)
           else line
         in
         (match
            Scanf.sscanf_opt line
              "{\"policy\": \"%s@\", \"records\": %d, \"wall_s\": %f, \"records_per_s\": %f}"
              (fun policy records wall_s records_per_s ->
                { policy; records; wall_s; records_per_s })
          with
         | Some r -> appends := r :: !appends
         | None -> ());
         match
           Scanf.sscanf_opt line
             "{\"log_records\": %d, \"recovered\": %d, \"rec_wall_s\": %f, \
              \"rec_records_per_s\": %f}"
             (fun log_records recovered rec_wall_s rec_records_per_s ->
               { log_records; recovered; rec_wall_s; rec_records_per_s })
         with
         | Some r -> recoveries := r :: !recoveries
         | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    Some (List.rev !appends, List.rev !recoveries)
  end

(* ------------------------------------------------------------------ *)
(* Rendering and gates                                                 *)
(* ------------------------------------------------------------------ *)

let render_appends rows =
  Stats.Text_table.render
    ~headers:[ "fsync"; "records"; "wall s"; "records/s" ]
    (List.map
       (fun r ->
         [ r.policy; string_of_int r.records; Printf.sprintf "%.3f" r.wall_s;
           Printf.sprintf "%.0f" r.records_per_s ])
       rows)

let render_recoveries rows =
  Stats.Text_table.render
    ~headers:[ "log records"; "recovered"; "wall s"; "records/s" ]
    (List.map
       (fun r ->
         [ string_of_int r.log_records; string_of_int r.recovered;
           Printf.sprintf "%.3f" r.rec_wall_s;
           Printf.sprintf "%.0f" r.rec_records_per_s ])
       rows)

let check_regressions ~append_base ~recovery_base append_rows recovery_rows =
  let failures = ref [] in
  let slower what current base =
    if current > 0. && base > regression_factor *. current then
      failures :=
        Printf.sprintf "%s: %.0f vs baseline %.0f (%.1fx slower)" what current
          base (base /. current)
        :: !failures
  in
  List.iter
    (fun r ->
      match
        List.find_opt (fun b -> String.equal b.policy r.policy) append_base
      with
      | Some b ->
        slower
          (Printf.sprintf "append fsync=%s records_per_s" r.policy)
          r.records_per_s b.records_per_s
      | None -> ())
    append_rows;
  List.iter
    (fun (r : recovery_row) ->
      match
        List.find_opt
          (fun (b : recovery_row) -> b.log_records = r.log_records)
          recovery_base
      with
      | Some b ->
        slower
          (Printf.sprintf "recovery of %d records_per_s" r.log_records)
          r.rec_records_per_s b.rec_records_per_s
      | None -> ())
    recovery_rows;
  match !failures with
  | [] ->
    Harness.say "store: PASS no regressions > %.1fx against %s" regression_factor
      baseline_file;
    true
  | fs ->
    List.iter (fun f -> Harness.say "REGRESSION %s" f) fs;
    Harness.say "store: FAIL %d gate(s) exceeded %.1fx vs %s" (List.length fs)
      regression_factor baseline_file;
    false

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
  Harness.say "";
  Harness.say "%s" (render_appends append_rows);
  Harness.say "";
  let lossless = ref true in
  let recovery_rows =
    List.map
      (fun records ->
        let r = run_recovery_leg ~records () in
        Harness.say "  recover %6d records in %.3fs (%.0f records/s)"
          r.log_records r.rec_wall_s r.rec_records_per_s;
        if r.recovered <> r.log_records then begin
          Harness.say "GATE recovery lost records: %d written, %d recovered"
            r.log_records r.recovered;
          lossless := false
        end;
        r)
      (if fast then [ 1_000; 5_000 ] else [ 1_000; 10_000; 50_000 ])
  in
  Harness.say "";
  Harness.say "%s" (render_recoveries recovery_rows);
  Harness.say "";
  if check then begin
    match read_baseline baseline_file with
    | None | Some ([], []) ->
      Harness.say "no baseline %s found; writing a fresh one" baseline_file;
      write_baseline baseline_file append_rows recovery_rows;
      if not !lossless then exit 1
    | Some (append_base, recovery_base) ->
      let regress_ok =
        check_regressions ~append_base ~recovery_base append_rows recovery_rows
      in
      if not (regress_ok && !lossless) then exit 1
  end
  else begin
    write_baseline baseline_file append_rows recovery_rows;
    Harness.say "baseline written to %s" baseline_file
  end

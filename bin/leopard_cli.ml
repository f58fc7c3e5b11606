(* Command-line front end for the Leopard reproduction.

     leopard run --n 64 --load 100000 --duration 20
     leopard run --n 16 --stop-leader 5 --resend 1
     leopard hotstuff --n 128 --batch 800
     leopard pbft --n 32
     leopard shard --rho 0.25 --target 1e-6
     leopard sf --n 300

   Every subcommand prints a plain-text report; `bench/main.exe` drives
   the full per-figure reproduction. *)

open Cmdliner

let span_of_sec s = Sim.Sim_time.of_sec s

(* A report's latency snapshot (ns), printed in seconds. *)
let pp_latency = Obs.Histogram.Snapshot.pp_summary ~unit:(1e9, "s")

(* Shared by `run` and `local-cluster`: dump a recorded protocol trace
   as one line per entry. *)
let dump_trace trace file =
  let oc = open_out file in
  let fmt = Format.formatter_of_out_channel oc in
  List.iter
    (fun e -> Format.fprintf fmt "%a@." Sim.Trace.pp_entry e)
    (Sim.Trace.entries trace);
  Format.pp_print_flush fmt ();
  close_out oc;
  Format.printf "trace: %d entries -> %s@." (Sim.Trace.length trace) file

(* ---------------- run (Leopard) ---------------- *)

let pp_bandwidth_view title (v : Core.Runner.bandwidth_view) =
  Format.printf "%s: sent %.2f MB, received %.2f MB@." title
    (float_of_int v.Core.Runner.sent_bytes /. 1e6)
    (float_of_int v.Core.Runner.received_bytes /. 1e6);
  List.iter
    (fun (cat, bytes) -> Format.printf "    sent %-12s %.2f MB@." cat (float_of_int bytes /. 1e6))
    v.Core.Runner.sent_by_category;
  List.iter
    (fun (cat, bytes) -> Format.printf "    recv %-12s %.2f MB@." cat (float_of_int bytes /. 1e6))
    v.Core.Runner.received_by_category

let leopard_run n load duration warmup alpha bft_size payload mempool_cap silent stop_leader
    resend gst seed bandwidth_mbps db_timeout prop_timeout trace_out metrics_out verbose =
  let cfg =
    Core.Config.make ~n ?alpha ?bft_size ~payload ~mempool_cap
      ~datablock_timeout:(span_of_sec db_timeout) ~proposal_timeout:(span_of_sec prop_timeout) ()
  in
  let link =
    match bandwidth_mbps with
    | Some mb ->
      Net.Network.{ default_link with out_bps = mbps mb; in_bps = mbps mb }
    | None -> Net.Network.default_link
  in
  let byzantine = if silent then Core.Runner.silent_f cfg else [] in
  let obs = Option.map (fun _ -> Obs.Registry.create ()) metrics_out in
  let spec =
    Core.Runner.spec ~cfg ~link ~seed ~load ~duration:(span_of_sec duration)
      ~warmup:(span_of_sec warmup) ~byzantine
      ?stop_leader_at:(Option.map span_of_sec stop_leader)
      ?client_resend_timeout:(Option.map span_of_sec resend)
      ?gst:(Option.map span_of_sec gst) ~trace:(trace_out <> None) ?obs ()
  in
  Format.printf "running Leopard: %a, load %.0f req/s, %.0fs (+%d silent Byzantine)@."
    Core.Config.pp cfg load duration (List.length byzantine);
  let t = Core.Runner.create spec in
  Core.Runner.run_until t (span_of_sec duration);
  let r = Core.Runner.report t in
  (match trace_out with
   | Some file -> dump_trace (Core.Runner.trace t) file
   | None -> ());
  (match (obs, metrics_out) with
   | Some reg, Some file ->
     Obs.Registry.dump_file reg file;
     Format.printf "metrics -> %s@." file
   | _ -> ());
  Format.printf "throughput:       %.0f req/s@." r.Core.Runner.throughput;
  Format.printf "goodput:          %.1f Mbps@." (r.Core.Runner.goodput_bps /. 1e6);
  Format.printf "offered/confirmed %d/%d@." r.Core.Runner.offered r.Core.Runner.confirmed;
  Format.printf "latency:          %a@." pp_latency r.Core.Runner.latency;
  Format.printf "leader traffic:   %.1f Mbps@." (r.Core.Runner.leader_bps /. 1e6);
  Format.printf "executed blocks:  %d@." r.Core.Runner.executed_blocks;
  Format.printf "final view:       %d (view changes: %d)@." r.Core.Runner.final_view
    r.Core.Runner.view_changes;
  (match r.Core.Runner.vc_trigger_to_entry with
   | Some s -> Format.printf "view change took: %.2f s, %.2f MB@." s
                 (float_of_int r.Core.Runner.vc_bytes /. 1e6)
   | None -> ());
  Format.printf "safety:           %b@." r.Core.Runner.safety_ok;
  Format.printf "all confirmed:    %b@." r.Core.Runner.all_confirmed;
  if verbose then begin
    pp_bandwidth_view "leader" r.Core.Runner.leader;
    pp_bandwidth_view "non-leader" r.Core.Runner.non_leader;
    List.iter
      (fun (stage, secs) -> Format.printf "stage %-22s %.1f request-seconds@." stage secs)
      r.Core.Runner.stage_seconds
  end;
  if r.Core.Runner.safety_ok then `Ok () else `Error (false, "safety violated")

(* ---------------- local-cluster (real TCP) ---------------- *)

let local_cluster_run n load client_rate duration drain alpha bft_size payload mempool_cap
    db_timeout prop_timeout min_confirmed kill kill_at revive_at verify_domains data_dir fsync
    trace_out metrics_out metrics_interval_ns =
  let load = Option.value client_rate ~default:load in
  let cfg =
    Core.Config.make ~n ~alpha ~bft_size ~payload ~mempool_cap
      ~datablock_timeout:(span_of_sec db_timeout)
      ~proposal_timeout:(span_of_sec prop_timeout) ()
  in
  let kill =
    match kill with
    | None -> None
    | Some id ->
      if id < 0 || id >= n then invalid_arg "--kill: no such replica";
      Some (id, span_of_sec kill_at, Option.map span_of_sec revive_at)
  in
  let trace =
    match trace_out with
    | Some _ -> Some (Sim.Trace.create ~enabled:true ~capacity:1_000_000 ())
    | None -> None
  in
  Format.printf
    "local cluster over loopback TCP: n=%d, load %.0f req/s, %.0fs (+%.0fs drain)@." n load
    duration drain;
  (match kill with
   | Some (id, _, revive) ->
     Format.printf "fault: kill replica %d at %.1fs%s@." id kill_at
       (match revive with Some _ -> Format.asprintf ", revive at %.1fs"
                                      (Option.get revive_at)
                        | None -> "")
   | None -> ());
  (match data_dir with
   | Some dir -> Format.printf "durable state: %s (fsync=%s)@." dir fsync
   | None -> ());
  let fsync =
    match fsync with
    | "always" -> Store.Wal.Always
    | "interval" -> Store.Wal.Interval 50_000_000
    | _ -> Store.Wal.Never
  in
  let r =
    Transport.Cluster.run ~cfg ~load ~duration:(span_of_sec duration)
      ~drain:(span_of_sec drain) ?min_confirmed ?kill ?trace ?verify_domains
      ?data_dir ~fsync ?metrics_out ~metrics_interval_ns ()
  in
  (match metrics_out with
   | Some file -> Format.printf "metrics -> %s@." file
   | None -> ());
  Format.printf "%a@." Transport.Cluster.pp_report r;
  (match (trace, trace_out) with
   | Some tr, Some file -> dump_trace tr file
   | _ -> ());
  if r.Transport.Cluster.ledgers_agree then `Ok ()
  else `Error (false, "honest ledgers diverged")

(* ---------------- chaos (fault-injection corpus) ---------------- *)

let write_chaos_trace dir (o : Faults.Oracle.outcome) =
  (try Unix.mkdir dir 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let file =
    Filename.concat dir
      (Printf.sprintf "%s-%s-n%d.trace" o.Faults.Oracle.plane
         o.Faults.Oracle.scenario.Faults.Scenario.name
         o.Faults.Oracle.scenario.Faults.Scenario.n)
  in
  let oc = open_out file in
  output_string oc o.Faults.Oracle.trace;
  close_out oc;
  file

let chaos_run list_only scenario plane sim_ns tcp_n seed trace_dir keep_traces metrics_out
    fast =
  if list_only then begin
    List.iter
      (fun b -> Format.printf "%a@." Faults.Scenario.pp (b ~n:4))
      Faults.Corpus.all;
    `Ok ()
  end
  else
    match
      match scenario with
      | None -> Some Faults.Corpus.all
      | Some name -> Option.map (fun b -> [ b ]) (Faults.Corpus.find name)
    with
    | None ->
      `Error
        ( false,
          Printf.sprintf "unknown scenario (try --list); known: %s"
            (String.concat ", " Faults.Corpus.names) )
    | Some builders ->
      let sim_ns = if fast then [ 4 ] else sim_ns in
      let outcomes = ref [] in
      let record o =
        outcomes := o :: !outcomes;
        let failed = not (Faults.Oracle.outcome_ok o) in
        (* failing runs always leave their trace behind as the repro
           artifact; --keep-traces keeps the passing ones too *)
        if failed || keep_traces then begin
          let file = write_chaos_trace trace_dir o in
          Format.printf "%a@.  trace -> %s@." Faults.Oracle.pp_outcome o file
        end
        else Format.printf "%a@." Faults.Oracle.pp_outcome o
      in
      if plane = "sim" || plane = "both" then
        List.iter
          (fun n ->
            List.iter (fun b -> record (Faults.Sim_plane.run ~seed (b ~n))) builders)
          sim_ns;
      if plane = "tcp" || plane = "both" then
        List.iter
          (fun b ->
            let sc = b ~n:tcp_n in
            (* one dump file per scenario: <base>.<scenario>-n<k>.prom *)
            let metrics_out =
              Option.map
                (fun base ->
                  Printf.sprintf "%s.%s-n%d.prom" base sc.Faults.Scenario.name tcp_n)
                metrics_out
            in
            record (Faults.Tcp_plane.run ~seed ~data_root:trace_dir ?metrics_out sc))
          builders;
      let outcomes = List.rev !outcomes in
      Format.printf "@.%a@." Faults.Oracle.pp_outcomes outcomes;
      if List.for_all Faults.Oracle.outcome_ok outcomes then `Ok ()
      else `Error (false, "chaos scenario failed its oracle")

(* ---------------- baselines ---------------- *)

let report_baseline (r : Baseline.report) =
  Format.printf "throughput:       %.0f req/s@." r.throughput;
  Format.printf "offered/confirmed %d/%d@." r.offered r.confirmed;
  Format.printf "latency:          %a@." pp_latency r.latency;
  Format.printf "leader traffic:   %.2f Gbps@." (r.leader_bps /. 1e9);
  Format.printf "committed blocks: %d@." r.committed_heights;
  Format.printf "safety:           %b@." r.safety_ok;
  if r.safety_ok then `Ok () else `Error (false, "safety violated")

(* ---------------- hotstuff ---------------- *)

let hotstuff_run n load duration warmup batch payload seed bandwidth_mbps =
  let cfg = Hotstuff.Hs_config.make ~n ~batch_size:batch ~payload () in
  let link =
    match bandwidth_mbps with
    | Some mb -> Net.Network.{ default_link with out_bps = mbps mb; in_bps = mbps mb }
    | None -> Net.Network.default_link
  in
  let spec =
    Hotstuff.Hs_replica.spec ~cfg ~link ~seed ~load ~duration:(span_of_sec duration)
      ~warmup:(span_of_sec warmup) ()
  in
  Format.printf "running HotStuff: n=%d batch=%d, load %.0f req/s, %.0fs@." n batch load duration;
  report_baseline (Hotstuff.Hs_replica.run spec)

(* ---------------- pbft ---------------- *)

let pbft_run n load duration warmup batch payload seed =
  let cfg = Pbft.make_cfg ~n ~batch_size:batch ~payload () in
  let spec =
    Pbft.spec ~cfg ~seed ~load ~duration:(span_of_sec duration) ~warmup:(span_of_sec warmup) ()
  in
  Format.printf "running PBFT: n=%d batch=%d, load %.0f req/s, %.0fs@." n batch load duration;
  report_baseline (Pbft.run spec)

(* ---------------- shard ---------------- *)

let shard_run rho target =
  let n = Analysis.Shard_prob.min_shard_size ~rho ~target in
  Format.printf "network Byzantine fraction rho = %.3f@." rho;
  Format.printf "committee failure target        = %.1e@." target;
  Format.printf "minimum committee size          = %d replicas@." n;
  Format.printf "failure probability at that n   = %.3e@."
    (Analysis.Shard_prob.failure_probability ~rho ~n);
  `Ok ()

(* ---------------- sf ---------------- *)

let sf_run n payload =
  let alpha, bft = Core.Config.paper_batch_sizes ~n in
  let alpha_bytes = float_of_int (alpha * payload) in
  let beta = float_of_int Crypto.Hash.size_bytes in
  Format.printf "n = %d (Table 2: alpha = %d requests, BFTsize = %d)@." n alpha bft;
  Format.printf "Leopard scaling factor:   %.3f@."
    (Core.Scaling_factor.leopard_sf ~alpha_bytes ~beta ~n);
  Format.printf "HotStuff scaling factor:  %.0f@." (Core.Scaling_factor.hotstuff_sf ~n);
  Format.printf "Leopard cost-effectiveness:  %.3f@."
    (Core.Scaling_factor.leopard_cost_effectiveness ~alpha_bytes ~beta);
  Format.printf "HotStuff cost-effectiveness: %.5f@."
    (Core.Scaling_factor.hotstuff_cost_effectiveness ~n);
  `Ok ()

(* ---------------- terms ---------------- *)

let n_arg = Arg.(value & opt int 16 & info [ "n" ] ~doc:"Number of replicas (3f+1).")
let load_arg = Arg.(value & opt float 50_000. & info [ "load" ] ~doc:"Offered load, requests/s.")
let duration_arg = Arg.(value & opt float 15. & info [ "duration" ] ~doc:"Simulated seconds.")
let warmup_arg = Arg.(value & opt float 4. & info [ "warmup" ] ~doc:"Warmup seconds excluded from rates.")
let payload_arg = Arg.(value & opt int 128 & info [ "payload" ] ~doc:"Request payload bytes.")
let seed_arg = Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"Simulation seed.")
let bw_arg =
  Arg.(value & opt (some float) None & info [ "bandwidth" ] ~doc:"Per-replica bandwidth, Mbps.")
let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~doc:"Record a protocol trace and write it to $(docv)." ~docv:"FILE")
let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ]
           ~doc:
             "Write a Prometheus-style text metrics dump to $(docv): periodically and on \
              exit for wall-clock runs, at end-of-run for the simulator." ~docv:"FILE")
let metrics_interval_arg =
  Arg.(value & opt int 1_000_000_000
       & info [ "metrics-interval-ns" ]
           ~doc:"Nanoseconds between periodic metrics dumps (wall-clock runs; default 1s).")
let mempool_cap_arg =
  Arg.(value & opt int 0
       & info [ "mempool-cap" ]
           ~doc:
             "Bound each replica's mempool to this many pending requests; submits past the \
              bound are rejected at admission (0 = unbounded, the default).")

let run_cmd =
  let alpha = Arg.(value & opt (some int) None & info [ "alpha" ] ~doc:"Datablock size, requests.") in
  let bft_size = Arg.(value & opt (some int) None & info [ "bft-size" ] ~doc:"Datablocks per BFTblock.") in
  let silent =
    Arg.(value & flag & info [ "silent-byzantine" ] ~doc:"Run with f silent Byzantine replicas.")
  in
  let stop_leader =
    Arg.(value & opt (some float) None & info [ "stop-leader" ] ~doc:"Fail-stop the leader at this second.")
  in
  let resend =
    Arg.(value & opt (some float) None & info [ "resend" ] ~doc:"Client re-send timeout, seconds.")
  in
  let gst = Arg.(value & opt (some float) None & info [ "gst" ] ~doc:"GST: adversarial delays before it.") in
  let db_timeout =
    Arg.(value & opt float 0.5
         & info [ "datablock-timeout" ]
             ~doc:"Pack a partial datablock after this many seconds (0 = pure Algorithm 1).")
  in
  let prop_timeout =
    Arg.(value & opt float 0.5
         & info [ "proposal-timeout" ]
             ~doc:"Leader short-timer: propose a partial BFTblock after this many seconds (0 = off).")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print bandwidth breakdowns.") in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a Leopard cluster on the simulator")
    Term.(
      ret
        (const leopard_run $ n_arg $ load_arg $ duration_arg $ warmup_arg $ alpha $ bft_size
        $ payload_arg $ mempool_cap_arg $ silent $ stop_leader $ resend $ gst $ seed_arg
        $ bw_arg $ db_timeout $ prop_timeout $ trace_out_arg $ metrics_out_arg $ verbose))

let local_cluster_cmd =
  let n = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Number of replicas (3f+1).") in
  let load = Arg.(value & opt float 2000. & info [ "load" ] ~doc:"Offered load, requests/s.") in
  let client_rate =
    Arg.(value & opt (some float) None
         & info [ "client-rate" ]
             ~doc:
               "Client request rate, requests/s (overrides $(b,--load)). With \
                $(b,--mempool-cap) set, the built-in client runs closed/open hybrid: \
                rejected submits are re-credited and retried after a cooldown instead of \
                being force-fed.")
  in
  let duration = Arg.(value & opt float 5. & info [ "duration" ] ~doc:"Load window, wall seconds.") in
  let drain =
    Arg.(value & opt float 10.
         & info [ "drain" ] ~doc:"Max settle time after the load stops, wall seconds.")
  in
  let alpha = Arg.(value & opt int 100 & info [ "alpha" ] ~doc:"Datablock size, requests.") in
  let bft_size = Arg.(value & opt int 10 & info [ "bft-size" ] ~doc:"Datablocks per BFTblock.") in
  let db_timeout =
    Arg.(value & opt float 0.02
         & info [ "datablock-timeout" ] ~doc:"Pack a partial datablock after this many seconds.")
  in
  let prop_timeout =
    Arg.(value & opt float 0.02
         & info [ "proposal-timeout" ] ~doc:"Propose a partial BFTblock after this many seconds.")
  in
  let min_confirmed =
    Arg.(value & opt (some int) None
         & info [ "min-confirmed" ] ~doc:"Stop the load early once this many requests confirmed.")
  in
  let kill =
    Arg.(value & opt (some int) None & info [ "kill" ] ~doc:"Fail-stop this replica mid-run.")
  in
  let kill_at =
    Arg.(value & opt float 2. & info [ "kill-at" ] ~doc:"When to kill, seconds into the run.")
  in
  let revive_at =
    Arg.(value & opt (some float) None
         & info [ "revive-at" ] ~doc:"Revive the killed replica at this second.")
  in
  let verify_domains =
    Arg.(value & opt (some int) None
         & info [ "verify-domains" ]
             ~doc:
               "Worker domains for parallel crypto verification (0 = verify inline on the \
                event loop; default: auto, scaled to the host cores).")
  in
  let data_dir =
    Arg.(value & opt (some string) None
         & info [ "data-dir" ]
             ~doc:
               "Keep each replica's write-ahead log and snapshots under this directory \
                (node-0/, node-1/, …). Default: a temp directory, removed on exit.")
  in
  let fsync =
    Arg.(value
         & opt (enum [ ("always", "always"); ("interval", "interval"); ("never", "never") ])
             "never"
         & info [ "fsync" ]
             ~doc:
               "WAL durability policy: $(b,always) fsyncs every append, $(b,interval) \
                fsyncs at most every 50ms, $(b,never) leaves durability to the page cache.")
  in
  Cmd.v
    (Cmd.info "local-cluster"
       ~doc:"Run replicas over real loopback TCP sockets (the deployable transport stack)")
    Term.(
      ret
        (const local_cluster_run $ n $ load $ client_rate $ duration $ drain $ alpha $ bft_size
        $ payload_arg $ mempool_cap_arg $ db_timeout $ prop_timeout $ min_confirmed $ kill
        $ kill_at $ revive_at $ verify_domains $ data_dir $ fsync $ trace_out_arg
        $ metrics_out_arg $ metrics_interval_arg))

let chaos_cmd =
  let list_only =
    Arg.(value & flag & info [ "list" ] ~doc:"List the scenario corpus and exit.")
  in
  let scenario =
    Arg.(value & opt (some string) None
         & info [ "scenario" ] ~doc:"Run a single scenario by name (default: whole corpus).")
  in
  let plane =
    Arg.(value & opt (enum [ ("sim", "sim"); ("tcp", "tcp"); ("both", "both") ]) "both"
         & info [ "plane" ] ~doc:"Which plane to run: $(b,sim), $(b,tcp) or $(b,both).")
  in
  let sim_ns =
    Arg.(value & opt (list int) [ 4; 16; 64 ]
         & info [ "sim-ns" ] ~doc:"Cluster sizes for the sim plane (comma-separated).")
  in
  let tcp_n =
    Arg.(value & opt int 4 & info [ "tcp-n" ] ~doc:"Cluster size for the TCP plane.")
  in
  let trace_dir =
    Arg.(value & opt string "_chaos"
         & info [ "trace-dir" ] ~doc:"Where failing-scenario traces are written.")
  in
  let keep_traces =
    Arg.(value & flag
         & info [ "keep-traces" ] ~doc:"Also write traces of passing scenarios.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ]
             ~doc:
               "TCP plane: write a per-scenario metrics dump to \
                $(docv).<scenario>-n<k>.prom." ~docv:"BASE")
  in
  let fast =
    Arg.(value & flag & info [ "fast" ] ~doc:"Sim plane at n=4 only; the TCP plane, if selected, runs at $(b,--tcp-n).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the deterministic fault-injection corpus (crashes, partitions, slow/silent/equivocating leaders) and check the safety/liveness oracles")
    Term.(
      ret
        (const chaos_run $ list_only $ scenario $ plane $ sim_ns $ tcp_n $ seed_arg
        $ trace_dir $ keep_traces $ metrics_out $ fast))

let hotstuff_cmd =
  let batch = Arg.(value & opt int 800 & info [ "batch" ] ~doc:"Requests per block.") in
  Cmd.v
    (Cmd.info "hotstuff" ~doc:"Run the chained-HotStuff baseline")
    Term.(
      ret
        (const hotstuff_run $ n_arg $ load_arg $ duration_arg $ warmup_arg $ batch $ payload_arg
        $ seed_arg $ bw_arg))

let pbft_cmd =
  let batch = Arg.(value & opt int 400 & info [ "batch" ] ~doc:"Requests per block.") in
  Cmd.v
    (Cmd.info "pbft" ~doc:"Run the PBFT-style all-to-all baseline")
    Term.(
      ret
        (const pbft_run $ n_arg $ load_arg $ duration_arg $ warmup_arg $ batch $ payload_arg
        $ seed_arg))

let shard_cmd =
  let rho = Arg.(value & opt float 0.25 & info [ "rho" ] ~doc:"Byzantine fraction in the network.") in
  let target = Arg.(value & opt float 1e-6 & info [ "target" ] ~doc:"Committee failure target.") in
  Cmd.v
    (Cmd.info "shard" ~doc:"Size a shard committee (Table 1 math)")
    Term.(ret (const shard_run $ rho $ target))

let sf_cmd =
  Cmd.v
    (Cmd.info "sf" ~doc:"Print scaling factors and cost-effectiveness (§5.2)")
    Term.(ret (const sf_run $ n_arg $ payload_arg))

let () =
  let info =
    Cmd.info "leopard" ~version:"1.0.0"
      ~doc:"Leopard BFT (ICDCS 2022) reproduction on a deterministic network simulator"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; local_cluster_cmd; chaos_cmd; hotstuff_cmd; pbft_cmd; shard_cmd;
            sf_cmd ]))

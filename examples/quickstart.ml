(* Quickstart: a 7-replica Leopard deployment confirming client requests.

     dune exec examples/quickstart.exe

   Builds a cluster with the public API, drives an open-loop workload
   for ten simulated seconds, and prints what the paper's evaluation
   cares about: confirmed throughput, client latency, and how little of
   the leader's bandwidth the protocol needs. *)

let () =
  (* 1. Protocol configuration: n = 7 tolerates f = 2 Byzantine replicas.
     Small batch sizes keep this demo snappy; Config.make defaults to the
     paper's Table 2 values for production-scale runs. *)
  let cfg =
    Core.Config.make ~n:7 ~alpha:100 ~bft_size:10
      ~datablock_timeout:(Sim.Sim_time.ms 200) ~proposal_timeout:(Sim.Sim_time.ms 300) ()
  in
  Format.printf "configuration: %a@." Core.Config.pp cfg;

  (* 2. An experiment spec: 5000 requests/s of 128-byte payloads for 10
     simulated seconds on c5.xlarge-like links, with the maximum
     tolerable number of silent Byzantine replicas. *)
  let spec =
    Core.Runner.spec ~cfg ~load:5_000. ~duration:(Sim.Sim_time.s 10)
      ~warmup:(Sim.Sim_time.s 2) ~byzantine:(Core.Runner.silent_f cfg) ()
  in

  (* 3. Run and read the report. *)
  let r = Core.Runner.run spec in
  Format.printf "offered requests:    %d@." r.Core.Runner.offered;
  Format.printf "confirmed requests:  %d@." r.Core.Runner.confirmed;
  Format.printf "throughput:          %.0f req/s@." r.Core.Runner.throughput;
  Format.printf "latency:             %a@."
    (Obs.Histogram.Snapshot.pp_summary ~unit:(1e9, "s"))
    r.Core.Runner.latency;
  Format.printf "leader bandwidth:    %.1f Mbps (of 4900 available)@."
    (r.Core.Runner.leader_bps /. 1e6);
  Format.printf "BFTblocks executed:  %d@." r.Core.Runner.executed_blocks;
  Format.printf "safety holds:        %b@." r.Core.Runner.safety_ok;
  Format.printf "all requests landed: %b@." r.Core.Runner.all_confirmed;
  if not (r.Core.Runner.safety_ok && r.Core.Runner.throughput > 0.) then exit 1

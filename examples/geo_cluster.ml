(* Geo-distributed deployment: three regions, realistic inter-region RTTs.

     dune exec examples/geo_cluster.exe

   The paper notes (§4.1) that geo-distributed replicas receive requests
   from their neighbouring clients, so datablocks from different regions
   are naturally disjoint. This example runs a 12-replica Leopard
   cluster spread over three regions (intra-region ~1 ms, us-eu ~40 ms,
   us-ap ~90 ms, eu-ap ~120 ms one-way) and compares confirmation
   latency against a single-region deployment. *)

open Sim

let regions_of id = id mod 3 (* round-robin: us, eu, ap *)

let one_way a b =
  match (min a b, max a b) with
  | 0, 0 | 1, 1 | 2, 2 -> Sim_time.zero (* intra-region: base link delay only *)
  | 0, 1 -> Sim_time.ms 40
  | 0, 2 -> Sim_time.ms 90
  | 1, 2 -> Sim_time.ms 120
  | _ -> assert false

let run ~geo =
  let cfg =
    Core.Config.make ~n:12 ~alpha:100 ~bft_size:4 ~datablock_timeout:(Sim_time.ms 200)
      ~proposal_timeout:(Sim_time.ms 300) ~fetch_grace:(Sim_time.ms 800) ()
  in
  let spec =
    Core.Runner.spec ~cfg ~load:5_000. ~duration:(Sim_time.s 12) ~warmup:(Sim_time.s 2)
      ~load_until:(Sim_time.s 8) ()
  in
  let t = Core.Runner.create spec in
  if geo then
    Net.Network.set_extra_delay (Core.Runner.network t)
      (Net.Partial_sync.geo ~regions:regions_of ~rtt_matrix:one_way);
  Core.Runner.run_until t (Sim_time.s 12);
  Core.Runner.report t

let () =
  let local = run ~geo:false in
  let geo = run ~geo:true in
  let p50_ms (r : Core.Runner.report) =
    Obs.Histogram.Snapshot.quantile r.Core.Runner.latency 0.5 /. 1e6
  in
  Format.printf "single region:   throughput %.0f req/s, p50 latency %4.0f ms, safety %b@."
    local.Core.Runner.throughput
    (p50_ms local)
    local.Core.Runner.safety_ok;
  Format.printf "three regions:   throughput %.0f req/s, p50 latency %4.0f ms, safety %b@."
    geo.Core.Runner.throughput
    (p50_ms geo)
    geo.Core.Runner.safety_ok;
  Format.printf
    "@.the wide-area deployment pays RTTs in datablock delivery and voting,@.\
     but throughput is unchanged: dissemination work is still spread over@.\
     all replicas, and each region's datablocks carry its own clients' load.@.";
  if not (local.Core.Runner.safety_ok && geo.Core.Runner.safety_ok) then exit 1;
  if not (geo.Core.Runner.throughput > 0.8 *. local.Core.Runner.throughput) then exit 1

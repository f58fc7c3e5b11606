(* Shard sizing: why sharding needs a scalable base BFT protocol (§2).

     dune exec examples/shard_sizing.exe

   A sharded ledger samples committees from a network with a fraction
   rho of Byzantine nodes. Each committee runs BFT and is only safe if
   fewer than a third of its members are Byzantine — Table 1 gives the
   failure probability per size. This example sizes committees for
   target failure rates and then actually runs one Leopard committee of
   a viable size, Byzantine members included. *)

let () =
  Format.printf "committee failure probability (Table 1):@.";
  List.iter
    (fun (rho, cells) ->
      Format.printf "  rho = %.2f:@." rho;
      List.iter (fun (n, p) -> Format.printf "    n = %-4d  P[unsafe] = %.2e@." n p) cells)
    (Analysis.Shard_prob.table1 ());

  Format.printf "@.minimum committee sizes:@.";
  List.iter
    (fun (rho, target) ->
      let n = Analysis.Shard_prob.min_shard_size ~rho ~target in
      Format.printf "  rho = %.2f, target %.0e -> %d members@." rho target n)
    [ (0.25, 1e-3); (0.25, 1e-6); (0.20, 1e-6) ];
  Format.printf
    "@.hundreds of members per shard: the base BFT protocol must stay fast at that scale.@.";

  (* Run one committee: 31 members, the full f = 10 silent Byzantine. *)
  let n = 31 in
  let cfg =
    Core.Config.make ~n ~alpha:200 ~bft_size:10
      ~datablock_timeout:(Sim.Sim_time.ms 200) ~proposal_timeout:(Sim.Sim_time.ms 300) ()
  in
  Format.printf "@.running one committee of %d (f = %d silent Byzantine members)...@." n
    (Core.Config.max_faulty cfg);
  let spec =
    Core.Runner.spec ~cfg ~load:20_000. ~duration:(Sim.Sim_time.s 10) ~warmup:(Sim.Sim_time.s 2)
      ~byzantine:(Core.Runner.silent_f cfg) ()
  in
  let r = Core.Runner.run spec in
  Format.printf "  committee throughput: %.0f req/s@." r.Core.Runner.throughput;
  Format.printf "  committee latency:    %a@."
    (Obs.Histogram.Snapshot.pp_summary ~unit:(1e9, "s"))
    r.Core.Runner.latency;
  Format.printf "  safety: %b@." r.Core.Runner.safety_ok;
  if not r.Core.Runner.safety_ok then exit 1

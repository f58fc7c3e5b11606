(* Fast payments: the paper's low-latency acknowledgment option (§4.3).

     dune exec examples/fast_payments.exe

   A payment processor wants a receipt as soon as its transfer is
   *confirmed* (a confirmed BFTblock will be executed anyway — the
   paper's fast-response option), and wants that receipt to be
   independently checkable. Datablock digests are Merkle roots over the
   carried request batches, so a replica can hand the client a compact
   inclusion proof: "your batch is in datablock D" plus "D is linked by
   the confirmed BFTblock at serial sn". *)

let () =
  let cfg =
    Core.Config.make ~n:4 ~alpha:50 ~bft_size:8
      ~datablock_timeout:(Sim.Sim_time.ms 100) ~proposal_timeout:(Sim.Sim_time.ms 200) ()
  in
  let spec =
    Core.Runner.spec ~cfg ~load:2_000. ~duration:(Sim.Sim_time.s 8) ~warmup:(Sim.Sim_time.s 1)
      ~load_until:(Sim.Sim_time.s 5) ()
  in
  let t = Core.Runner.create spec in
  Core.Runner.run_until t (Sim.Sim_time.s 8);
  let r = Core.Runner.report t in
  Format.printf "payments offered %d, confirmed %d, p50 latency %.0f ms@." r.Core.Runner.offered
    r.Core.Runner.confirmed
    (Obs.Histogram.Snapshot.quantile r.Core.Runner.latency 0.5 /. 1e6);

  (* Build a receipt for one confirmed payment from any honest replica's
     state: find an executed BFTblock, a datablock it links, and a batch
     inside that datablock. *)
  let replica = (Core.Runner.replicas t).(0) in
  let ledger = Core.Replica.ledger replica in
  let pool = Core.Replica.pool replica in
  let receipt =
    let rec scan sn =
      if sn > Core.Ledger.executed_up_to ledger then None
      else
        match Core.Ledger.get ledger sn with
        | Some block when not block.Core.Bftblock.dummy ->
          let dbs = List.filter_map (Core.Datablock_pool.find pool) block.Core.Bftblock.links in
          (match dbs with
           | db :: _ when db.Core.Datablock.batches <> [] -> Some (sn, block, db)
           | _ -> scan (sn + 1))
        | Some _ | None -> scan (sn + 1)
    in
    scan (Core.Replica.low_watermark replica + 1)
  in
  match receipt with
  | None ->
    (* Executed blocks below the checkpoint watermark are garbage
       collected; at this small scale that can consume everything. *)
    Format.printf "all executed datablocks already checkpointed away — rerun with more load@."
  | Some (sn, block, db) ->
    let batches = db.Core.Datablock.batches in
    let payment = List.hd batches in
    let leaves = List.map Workload.Request.hash batches in
    let index = 0 in
    (match Crypto.Merkle.prove leaves index with
     | None -> assert false
     | Some proof ->
       Format.printf "@.receipt for payment batch #%d (%d transfers):@."
         payment.Workload.Request.id payment.Workload.Request.count;
       Format.printf "  confirmed in BFTblock sn=%d (view %d, %d datablock links)@." sn
         block.Core.Bftblock.view
         (List.length block.Core.Bftblock.links);
       Format.printf "  datablock %a by %a@." Crypto.Hash.pp (Core.Datablock.hash db)
         Net.Node_id.pp db.Core.Datablock.header.creator;
       Format.printf "  Merkle proof: %d bytes@." (Crypto.Merkle.proof_size_bytes proof);
       let ok =
         Crypto.Merkle.verify_proof ~root:db.Core.Datablock.header.digest
           ~leaf:(Workload.Request.hash payment) proof
       in
       Format.printf "  client-side verification: %b@." ok;
       (* And a tampered payment must fail. *)
       let forged =
         Workload.Request.make ~id:999_999 ~count:1 ~size_each:128 ~born:Sim.Sim_time.zero ()
       in
       let forged_ok =
         Crypto.Merkle.verify_proof ~root:db.Core.Datablock.header.digest
           ~leaf:(Workload.Request.hash forged) proof
       in
       Format.printf "  forged payment accepted: %b (must be false)@." forged_ok;
       if not ok || forged_ok then exit 1)

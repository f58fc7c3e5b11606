(* Cross-module property tests: randomized schedules against protocol
   invariants that the unit suites check only pointwise. *)

open Sim

(* -- Ledger: execution is a contiguous prefix under any confirm order -- *)

let prop_ledger_random_confirm_order =
  QCheck.Test.make ~name:"ledger executes a contiguous prefix" ~count:100
    QCheck.(pair int64 (int_range 1 40))
    (fun (seed, count) ->
      let rng = Rng.create seed in
      let l = Core.Ledger.create () in
      let sns = Array.init count (fun i -> i + 1) in
      Rng.shuffle rng sns;
      let executed_trace = ref [] in
      Array.for_all
        (fun sn ->
          Core.Ledger.confirm l
            (Core.Bftblock.create ~view:1 ~sn ~links:[ Crypto.Hash.of_string (string_of_int sn) ]);
          (* drain whatever became executable *)
          let rec drain () =
            match Core.Ledger.next_executable l with
            | Some b ->
              Core.Ledger.mark_executed l b.Core.Bftblock.sn;
              executed_trace := b.Core.Bftblock.sn :: !executed_trace;
              drain ()
            | None -> ()
          in
          drain ();
          (* invariant: executed serials are exactly 1..executed_up_to *)
          List.rev !executed_trace = List.init (Core.Ledger.executed_up_to l) (fun i -> i + 1))
        sns
      && Core.Ledger.executed_up_to l = count)

(* -- Mempool: take conserves requests and never returns confirmed ----- *)

let prop_mempool_conservation =
  QCheck.Test.make ~name:"mempool take conserves pending counts" ~count:100
    QCheck.(pair int64 (list (int_range 1 20)))
    (fun (seed, sizes) ->
      let rng = Rng.create seed in
      let m = Core.Mempool.create () in
      let total = ref 0 in
      List.iteri
        (fun i count ->
          let b = Workload.Request.make ~id:i ~count ~size_each:8 ~born:Sim_time.zero () in
          (* randomly pre-confirm some batches *)
          if Rng.bool rng then Workload.Request.mark_confirmed b else total := !total + count;
          Core.Mempool.add m b)
        sizes;
      let taken = ref 0 in
      let rec drain () =
        let got = Core.Mempool.take m ~target:7 in
        if got <> [] then begin
          List.iter
            (fun b ->
              if Workload.Request.is_confirmed b then raise Exit;
              taken := !taken + b.Workload.Request.count)
            got;
          drain ()
        end
      in
      (try
         drain ();
         !taken = !total && Core.Mempool.pending_requests m = 0
       with Exit -> false))

(* -- Quorum: Ready fires exactly once, at exactly [need] distinct ----- *)

let prop_quorum_exactly_once =
  QCheck.Test.make ~name:"quorum releases exactly once at need" ~count:100
    QCheck.(pair int64 (int_range 1 8))
    (fun (seed, f) ->
      let n = (3 * f) + 1 in
      let need = (2 * f) + 1 in
      let rng = Rng.create seed in
      let _, keys = Crypto.Threshold.keygen rng ~threshold:(2 * f) ~parties:n in
      let q = Core.Quorum.create ~need in
      (* a random stream of (possibly repeated) member shares *)
      let ready = ref 0 in
      let distinct = Hashtbl.create 8 in
      for _ = 1 to 4 * n do
        let i = Rng.int rng n in
        Hashtbl.replace distinct i ();
        match Core.Quorum.add q (Crypto.Threshold.sign_share keys.(i) "m") with
        | Core.Quorum.Ready shares ->
          incr ready;
          if List.length shares <> need then ready := 100
        | Core.Quorum.Pending c -> if c >= need then ready := 100
        | Core.Quorum.Already_done -> ()
      done;
      if Hashtbl.length distinct >= need then !ready = 1 else !ready = 0)

(* -- Engine: event count and clock are a pure function of the seed ---- *)

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine runs are replayable" ~count:20 QCheck.int64 (fun seed ->
      let run () =
        let e = Engine.create ~seed () in
        let rng = Rng.split (Engine.rng e) in
        let log = Buffer.create 64 in
        let rec tick i =
          if i < 50 then begin
            Buffer.add_string log (Printf.sprintf "%Ld;" (Engine.now e));
            ignore
              (Engine.schedule e
                 ~delay:(Sim_time.us (1 + Rng.int rng 1000))
                 (fun () -> tick (i + 1)))
          end
        in
        tick 0;
        Engine.run e;
        Buffer.contents log
      in
      String.equal (run ()) (run ()))

(* -- End-to-end: conservation of requests ------------------------------ *)

let prop_no_request_created_or_lost =
  QCheck.Test.make ~name:"confirmed <= offered and every batch counted once" ~count:6
    QCheck.int64
    (fun seed ->
      let cfg =
        Core.Config.make ~n:4 ~alpha:10 ~bft_size:2 ~payload:32
          ~datablock_timeout:(Sim_time.ms 200) ~proposal_timeout:(Sim_time.ms 200)
          ~fetch_grace:(Sim_time.ms 200) ~cost:Crypto.Cost_model.free ()
      in
      let sp =
        Core.Runner.spec ~cfg ~seed ~load:500. ~duration:(Sim_time.s 10)
          ~warmup:(Sim_time.s 1) ~load_until:(Sim_time.s 6) ()
      in
      let r = Core.Runner.run sp in
      r.Core.Runner.confirmed <= r.Core.Runner.offered
      && (not r.Core.Runner.all_confirmed) = (r.Core.Runner.confirmed < r.Core.Runner.offered)
      && r.Core.Runner.safety_ok)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "invariants"
    [ ( "cross-module properties",
        qsuite
          [ prop_ledger_random_confirm_order;
            prop_mempool_conservation;
            prop_quorum_exactly_once;
            prop_engine_deterministic;
            prop_no_request_created_or_lost ] ) ]

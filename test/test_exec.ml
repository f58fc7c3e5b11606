(* Exec.Pool: the bounded domain worker pool under the verification
   pipeline. Drain-only async delivery, backpressure, stats —
   and the crypto paths that run on it: concurrent Datablock.verify /
   Threshold.verify from several domains must agree, a corrupted block
   must be rejected from every domain, and the memos the workers warm
   must read back the same verdict on the owner. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Wait the way the TCP runtime does: sleep in select(2) on the notify
   fd, then drain, until [is_done] holds. *)
let drain_until p is_done =
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (is_done ())) && Unix.gettimeofday () < deadline do
    ignore (Unix.select [ Exec.Pool.notify_fd p ] [] [] 1.0);
    ignore (Exec.Pool.drain p : int)
  done;
  if not (is_done ()) then Alcotest.fail "completion not delivered within 5 s"

(* Run each of [fs] on the workers and return the results in
   submission order. *)
let run_all p fs =
  let results = Array.make (List.length fs) None in
  List.iteri (fun i f -> Exec.Pool.async p f (fun v -> results.(i) <- Some v)) fs;
  drain_until p (fun () -> Array.for_all Option.is_some results);
  List.map Option.get (Array.to_list results)

(* -- pool mechanics ----------------------------------------------------- *)

let test_drain_reraises () =
  let p = Exec.Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown p)
    (fun () ->
      let called = ref false in
      Exec.Pool.async p (fun () -> failwith "boom") (fun () -> called := true);
      ignore (Unix.select [ Exec.Pool.notify_fd p ] [] [] 5.0);
      checkb "the task's exception is raised out of drain" true
        (match Exec.Pool.drain p with
        | _ -> false
        | exception Failure m -> String.equal m "boom");
      checkb "continuation not called" false !called)

let test_async_delivered_only_at_drain () =
  let p = Exec.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown p)
    (fun () ->
      let delivered = ref [] and ran = Atomic.make 0 in
      for i = 0 to 9 do
        Exec.Pool.async p
          (fun () ->
            Atomic.incr ran;
            i)
          (fun v -> delivered := v :: !delivered)
      done;
      (* Wait for the work itself; the continuations must still be parked
         in the done queue, not run from the worker domains. *)
      let deadline = Unix.gettimeofday () +. 5. in
      while Atomic.get ran < 10 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      checki "all ten tasks ran" 10 (Atomic.get ran);
      checki "nothing delivered before drain" 0 (List.length !delivered);
      (* async completions enqueue after their task finishes; give the
         last ones a moment, then drain until all ten are here. *)
      let rec drain_all deadline =
        ignore (Exec.Pool.drain p : int);
        if List.length !delivered < 10 && Unix.gettimeofday () < deadline then begin
          Unix.sleepf 0.001;
          drain_all deadline
        end
      in
      drain_all (Unix.gettimeofday () +. 5.);
      checki "all delivered" 10 (List.length !delivered);
      checki "delivered count in stats" 10 (Exec.Pool.stats p).Exec.Pool.drained)

(* One worker takes tasks from the FIFO queue one at a time, so the
   completions reach [drain] in submission order. *)
let test_async_order_and_notify_fd () =
  let p = Exec.Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown p)
    (fun () ->
      let delivered = ref [] in
      for i = 0 to 49 do
        Exec.Pool.async p (fun () -> 2 * i) (fun v -> delivered := v :: !delivered)
      done;
      (* The notify fd must become readable once a completion is queued. *)
      let r, _, _ = Unix.select [ Exec.Pool.notify_fd p ] [] [] 5.0 in
      checkb "notify fd readable" true (r <> []);
      drain_until p (fun () -> List.length !delivered = 50);
      List.iteri (fun i v -> checki "submission order" (2 * i) v) (List.rev !delivered))

let test_backpressure_runs_inline () =
  (* One worker, blocked; a budget of 1 is exhausted by the blocked task,
     so further submissions must run on the caller. *)
  let p = Exec.Pool.create ~domains:1 ~budget:1 () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown p)
    (fun () ->
      let gate = Semaphore.Binary.make false in
      (* In-flight counts from submission, so the budget is full the
         moment this is enqueued — no need to wait for pickup. *)
      let delivered = ref 0 in
      Exec.Pool.async p (fun () -> Semaphore.Binary.acquire gate) (fun () -> incr delivered);
      let caller_domain = Domain.self () in
      let ran_on = ref None in
      Exec.Pool.async p (fun () -> ran_on := Some (Domain.self ())) (fun () -> incr delivered);
      (* the task itself ran before [async] returned; its continuation
         still waits for a drain *)
      checkb "ran on the caller domain" true (!ran_on = Some caller_domain);
      checkb "inline_runs counted" true ((Exec.Pool.stats p).Exec.Pool.inline_runs >= 1);
      checki "nothing delivered before drain" 0 !delivered;
      Semaphore.Binary.release gate;
      drain_until p (fun () -> !delivered = 2))

let test_stats_sanity () =
  let p = Exec.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown p)
    (fun () ->
      ignore (run_all p (List.init 20 (fun i () -> i)) : int list);
      let s = Exec.Pool.stats p in
      checki "tasks" 20 s.Exec.Pool.tasks;
      checki "one completion drained per task" 20 s.Exec.Pool.drained;
      checki "size" 2 (Exec.Pool.size p))

let test_shutdown_idempotent () =
  let p = Exec.Pool.create ~domains:2 () in
  let ran = Atomic.make false and delivered = ref false in
  Exec.Pool.async p (fun () -> Atomic.set ran true) (fun () -> delivered := true);
  Exec.Pool.shutdown p;
  (* queued work was finished before the workers exited; its undrained
     completion was discarded *)
  checkb "queued task ran" true (Atomic.get ran);
  checkb "completion discarded" false !delivered;
  Exec.Pool.shutdown p (* second call is a no-op *)

(* Two worker domains complete 100k async tasks; the owner sleeps only
   in select(2) on the notify fd and drains when it is readable. Every
   completion must arrive: a drain that skipped the pipe while a byte
   was due would strand the rest. *)
let test_drain_hammer_notify_fd_only () =
  let p = Exec.Pool.create ~domains:2 ~budget:256 () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown p)
    (fun () ->
      let total = 100_000 in
      let delivered = ref 0 and submitted = ref 0 in
      let fd = Exec.Pool.notify_fd p in
      let deadline = Unix.gettimeofday () +. 60. in
      while !delivered < total && Unix.gettimeofday () < deadline do
        (* keep up to 128 in flight, under the budget, so none run inline *)
        while !submitted < total && !submitted - !delivered < 128 do
          Exec.Pool.async p (fun () -> ()) (fun () -> incr delivered);
          incr submitted
        done;
        match Unix.select [ fd ] [] [] 5.0 with
        | [], _, _ -> Alcotest.failf "notify fd silent with %d undelivered" (!submitted - !delivered)
        | _ -> ignore (Exec.Pool.drain p : int)
      done;
      checki "all delivered" total !delivered;
      checki "none ran inline" 0 (Exec.Pool.stats p).Exec.Pool.inline_runs)

let test_empty_drain_allocates_nothing () =
  let p = Exec.Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown p)
    (fun () ->
      (* one delivery first, so the pipe has been used and cleared *)
      let got = ref false in
      Exec.Pool.async p (fun () -> ()) (fun () -> got := true);
      while not !got do
        ignore (Unix.select [ Exec.Pool.notify_fd p ] [] [] 5.0);
        ignore (Exec.Pool.drain p : int)
      done;
      let before = Gc.minor_words () in
      let n = ref 0 in
      for _ = 1 to 1000 do
        n := !n + Exec.Pool.drain p
      done;
      let words = Gc.minor_words () -. before in
      checki "nothing to deliver" 0 !n;
      Alcotest.(check (float 0.)) "minor words for 1000 empty drains" 0. words)

(* -- parallel crypto verification --------------------------------------- *)

let mk_batches () =
  List.init 8 (fun i ->
      Workload.Request.make ~id:i ~count:4 ~size_each:64 ~born:0L ())

let mk_db_key () =
  let rng = Sim.Rng.create 7L in
  let pk, sk = Crypto.Signature.keygen rng in
  let db =
    Core.Datablock.create ~sk ~creator:0 ~counter:1 ~now:Sim.Sim_time.zero (mk_batches ())
  in
  ([| pk |], sk, db)

let mk_db () =
  let pks, _, db = mk_db_key () in
  (pks, db)

let test_corrupted_block_rejected_from_every_domain () =
  let pks, db = mk_db () in
  checkb "original verifies" true (Core.Datablock.verify ~pks db);
  let p = Exec.Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown p)
    (fun () ->
      (* Fresh tampered copy per task: every domain must recompute the
         Merkle root (no shared warm memo) and reject. *)
      let bad =
        run_all p
          (List.init 64 (fun _ ->
               let forged = Core.Datablock.tamper db in
               fun () -> Core.Datablock.verify ~pks forged))
      in
      List.iter (checkb "tampered rejected" false) bad;
      (* And one shared corrupted value hammered concurrently: the CAS'd
         memo must never flip to Valid under the race, and the owner's
         later re-check reads the verdict the workers published. *)
      let forged = Core.Datablock.tamper db in
      let shared = run_all p (List.init 64 (fun _ () -> Core.Datablock.verify ~pks forged)) in
      List.iter (checkb "shared tampered rejected" false) shared;
      checkb "owner re-check of the shared forgery" false (Core.Datablock.verify ~pks forged);
      (* Valid block accepted from every domain, ditto under sharing:
         a fresh copy, so the workers race to warm its memos. *)
      let fresh =
        let open Core.Datablock in
        of_wire ~creator:db.header.creator ~counter:db.header.counter
          ~digest:db.header.digest ~created_at:db.created_at ~signature:db.signature
          db.batches
      in
      let good = run_all p (List.init 64 (fun _ () -> Core.Datablock.verify ~pks fresh)) in
      List.iter (checkb "valid accepted" true) good;
      checkb "owner re-check of the shared valid block" true
        (Core.Datablock.verify ~pks fresh);
      (* the plain memo fields the workers raced to fill hold the right
         values *)
      checkb "digest memo" true
        (match fresh.Core.Datablock.true_digest with
        | Some d -> Crypto.Hash.equal d (Core.Datablock.digest_of_batches fresh.batches)
        | None -> false);
      checkb "hash over the header memo" true
        (Crypto.Hash.equal (Core.Datablock.hash fresh) (Core.Datablock.hash db)))

let test_threshold_verdicts_agree_across_domains () =
  let rng = Sim.Rng.create 11L in
  let setup, keys = Crypto.Threshold.keygen rng ~threshold:2 ~parties:4 in
  let msg = "payload under vote" in
  let shares = Array.to_list (Array.map (fun k -> Crypto.Threshold.sign_share k msg) keys) in
  let agg =
    match Crypto.Threshold.combine setup msg shares with
    | Some a -> a
    | None -> Alcotest.fail "combine failed"
  in
  let forged = Crypto.Threshold.forge_attempt setup msg in
  let p = Exec.Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown p)
    (fun () ->
      (* Same aggregate verified concurrently from every domain — the
         atomic verdict memo and DLS mask memo must give one answer. *)
      let oks =
        run_all p
          (List.init 64 (fun i () ->
               if i mod 2 = 0 then Crypto.Threshold.verify setup agg msg
               else not (Crypto.Threshold.verify setup forged msg)))
      in
      List.iter (checkb "verdict" true) oks;
      checkb "owner re-check of the aggregate" true (Crypto.Threshold.verify setup agg msg);
      checkb "owner re-check of the forgery" false (Crypto.Threshold.verify setup forged msg);
      (* Shares too (leader path). *)
      let share_oks =
        run_all p (List.map (fun s () -> Crypto.Threshold.verify_share setup s msg) shares)
      in
      List.iter (checkb "share verdict" true) share_oks)

let test_verify_facade_dispatchers_agree () =
  let pks, sk, db = mk_db_key () in
  let job = Core.Verify.Datablock_check { pks; db } in
  let bad_job = Core.Verify.Datablock_check { pks; db = Core.Datablock.tamper db } in
  checkb "run: good" true (Core.Verify.run job);
  checkb "run: tampered" false (Core.Verify.run bad_job);
  let got = ref None in
  Core.Verify.inline job (fun ok -> got := Some ok);
  checkb "inline" (Some true = !got) true;
  let got = ref None in
  Core.Verify.inline bad_job (fun ok -> got := Some ok);
  checkb "inline rejects the tampered block" (Some false = !got) true;
  let p = Exec.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown p)
    (fun () ->
      (* pooled: a job under the inline cut completes on the spot ... *)
      checkb "8-batch check is below the cut" true
        (Core.Verify.cost job < Core.Verify.inline_below);
      let got = ref None in
      Core.Verify.pooled p job (fun ok -> got := Some ok);
      checkb "pooled cheap check is synchronous" (Some true = !got) true;
      let got = ref None in
      Core.Verify.pooled p bad_job (fun ok -> got := Some ok);
      checkb "pooled cheap tampered check is synchronous and false" (Some false = !got) true;
      (* ... and one above it goes to a worker and completes only at drain *)
      let big =
        Core.Datablock.create ~sk ~creator:0 ~counter:2 ~now:Sim.Sim_time.zero
          (List.init 64 (fun i -> Workload.Request.make ~id:i ~count:1 ~size_each:64 ~born:0L ()))
      in
      let big_job = Core.Verify.Datablock_check { pks; db = big } in
      let big_bad = Core.Verify.Datablock_check { pks; db = Core.Datablock.tamper big } in
      checkb "64-batch check is above the cut" true
        (Core.Verify.cost big_job >= Core.Verify.inline_below);
      let got = ref None and got_bad = ref None in
      Core.Verify.pooled p big_job (fun ok -> got := Some ok);
      Core.Verify.pooled p big_bad (fun ok -> got_bad := Some ok);
      checkb "pooled large job never synchronous" (None = !got && None = !got_bad) true;
      drain_until p (fun () -> !got <> None && !got_bad <> None);
      checkb "pooled delivers at drain" (Some true = !got) true;
      checkb "pooled rejects the tampered large block" (Some false = !got_bad) true)

let () =
  Alcotest.run "exec"
    [ ( "pool",
        [ Alcotest.test_case "drain re-raises a task's exception" `Quick test_drain_reraises;
          Alcotest.test_case "async only at drain" `Quick test_async_delivered_only_at_drain;
          Alcotest.test_case "async order + notify fd" `Quick test_async_order_and_notify_fd;
          Alcotest.test_case "backpressure inline fallback" `Quick
            test_backpressure_runs_inline;
          Alcotest.test_case "stats" `Quick test_stats_sanity;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
          Alcotest.test_case "drain hammer via notify fd" `Quick test_drain_hammer_notify_fd_only;
          Alcotest.test_case "empty drain allocates nothing" `Quick
            test_empty_drain_allocates_nothing ] );
      ( "parallel verification",
        [ Alcotest.test_case "corrupted block rejected everywhere" `Quick
            test_corrupted_block_rejected_from_every_domain;
          Alcotest.test_case "threshold verdicts agree" `Quick
            test_threshold_verdicts_agree_across_domains;
          Alcotest.test_case "facade dispatchers agree" `Quick
            test_verify_facade_dispatchers_agree ] ) ]

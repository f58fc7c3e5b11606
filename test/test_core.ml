(* Unit tests for the Leopard core data structures (no network). *)

open Sim

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let rng = Rng.create 4242L

let batch =
  let next = ref 0 in
  fun ?(count = 5) () ->
    incr next;
    Workload.Request.make ~id:!next ~count ~size_each:128 ~born:Sim_time.zero ()

let keypair () = Crypto.Signature.keygen rng

(* -- Config ------------------------------------------------------------------ *)

let test_config_defaults () =
  let c = Core.Config.make ~n:64 () in
  checki "f" 21 c.Core.Config.f;
  checki "quorum" 43 (Core.Config.quorum c);
  checki "alpha (Table 2)" 2000 c.Core.Config.alpha;
  checki "bft_size (Table 2)" 100 c.Core.Config.bft_size;
  checki "reqs per block" 200_000 (Core.Config.requests_per_bftblock c)

let test_config_table2 () =
  Alcotest.(check (pair int int)) "n=128" (3000, 300) (Core.Config.paper_batch_sizes ~n:128);
  Alcotest.(check (pair int int)) "n=256" (4000, 300) (Core.Config.paper_batch_sizes ~n:256);
  Alcotest.(check (pair int int)) "n=400" (4000, 400) (Core.Config.paper_batch_sizes ~n:400);
  Alcotest.(check (pair int int)) "n=600" (4000, 400) (Core.Config.paper_batch_sizes ~n:600)

let test_config_validation () =
  Alcotest.check_raises "n too small" (Invalid_argument "Config.make: n must be at least 4")
    (fun () -> ignore (Core.Config.make ~n:3 ()));
  Alcotest.check_raises "bad alpha" (Invalid_argument "Config.make: alpha must be positive")
    (fun () -> ignore (Core.Config.make ~n:4 ~alpha:0 ()))

let test_config_leader_rotation () =
  let c = Core.Config.make ~n:7 () in
  checki "view 1" 1 (Core.Config.leader_of_view c 1);
  checki "view 7" 0 (Core.Config.leader_of_view c 7);
  checki "view 8" 1 (Core.Config.leader_of_view c 8)

(* -- Datablock ----------------------------------------------------------------- *)

let test_datablock_create_verify () =
  let pk, sk = keypair () in
  let db = Core.Datablock.create ~sk ~creator:0 ~counter:1 ~now:Sim_time.zero [ batch (); batch () ] in
  checkb "verifies" true (Core.Datablock.verify ~pks:[| pk |] db);
  checki "req count" 10 db.Core.Datablock.req_count;
  checki "payload" 1280 db.Core.Datablock.payload_bytes;
  checkb "wire > payload" true (Core.Datablock.wire_size db > 1280)

let test_datablock_wrong_key_rejected () =
  let _, sk = keypair () in
  let other_pk, _ = keypair () in
  let db = Core.Datablock.create ~sk ~creator:0 ~counter:1 ~now:Sim_time.zero [ batch () ] in
  checkb "rejected" false (Core.Datablock.verify ~pks:[| other_pk |] db)

let test_datablock_bad_digest_rejected () =
  let pk, sk = keypair () in
  let db =
    Core.Datablock.forge_with_bad_digest ~sk ~creator:0 ~counter:1 ~now:Sim_time.zero [ batch () ]
  in
  checkb "integrity check fails" false (Core.Datablock.verify ~pks:[| pk |] db)

let test_datablock_hash_binds_content () =
  let _, sk = keypair () in
  let a = Core.Datablock.create ~sk ~creator:0 ~counter:1 ~now:Sim_time.zero [ batch () ] in
  let b = Core.Datablock.create ~sk ~creator:0 ~counter:1 ~now:Sim_time.zero [ batch () ] in
  (* same (creator, counter) but different requests => different digest
     and hence different hash *)
  checkb "different content different hash" false
    (Crypto.Hash.equal (Core.Datablock.hash a) (Core.Datablock.hash b))

(* -- Bftblock ----------------------------------------------------------------- *)

let some_links k = List.init k (fun i -> Crypto.Hash.of_string (Printf.sprintf "db%d" i))

let test_bftblock_hash_view_independent () =
  let b1 = Core.Bftblock.create ~view:1 ~sn:5 ~links:(some_links 3) in
  let b2 = Core.Bftblock.with_view b1 9 in
  checkb "same content hash across views" true
    (Crypto.Hash.equal (Core.Bftblock.hash b1) (Core.Bftblock.hash b2));
  checkb "equal_content" true (Core.Bftblock.equal_content b1 b2)

let test_bftblock_hash_binds_links () =
  let b1 = Core.Bftblock.create ~view:1 ~sn:5 ~links:(some_links 3) in
  let b2 = Core.Bftblock.create ~view:1 ~sn:5 ~links:(some_links 4) in
  checkb "links matter" false (Crypto.Hash.equal (Core.Bftblock.hash b1) (Core.Bftblock.hash b2));
  let b3 = Core.Bftblock.create ~view:1 ~sn:6 ~links:(some_links 3) in
  checkb "sn matters" false (Crypto.Hash.equal (Core.Bftblock.hash b1) (Core.Bftblock.hash b3))

let test_bftblock_dummy () =
  let d = Core.Bftblock.dummy ~view:2 ~sn:7 in
  checkb "dummy flag" true d.Core.Bftblock.dummy;
  checki "no links" 0 (List.length d.Core.Bftblock.links);
  let plain = Core.Bftblock.create ~view:2 ~sn:7 ~links:[] in
  checkb "dummy differs from empty block" false
    (Crypto.Hash.equal (Core.Bftblock.hash d) (Core.Bftblock.hash plain));
  checkb "wire size grows with links" true
    (Core.Bftblock.wire_size (Core.Bftblock.create ~view:1 ~sn:1 ~links:(some_links 10))
     > Core.Bftblock.wire_size d)

(* -- Mempool ------------------------------------------------------------------- *)

let test_mempool_take_fifo () =
  let m = Core.Mempool.create () in
  let b1 = batch ~count:3 () and b2 = batch ~count:3 () and b3 = batch ~count:3 () in
  List.iter (Core.Mempool.add m) [ b1; b2; b3 ];
  checki "pending" 9 (Core.Mempool.pending_requests m);
  checkb "has_at_least" true (Core.Mempool.has_at_least m 6);
  let taken = Core.Mempool.take m ~target:6 in
  checkb "fifo order" true (taken = [ b1; b2 ]);
  checki "remaining" 3 (Core.Mempool.pending_requests m)

let test_mempool_skips_confirmed () =
  let m = Core.Mempool.create () in
  let b1 = batch () and b2 = batch () in
  Core.Mempool.add m b1;
  Core.Mempool.add m b2;
  Workload.Request.mark_confirmed b1;
  let taken = Core.Mempool.take m ~target:5 in
  checkb "confirmed skipped" true (taken = [ b2 ]);
  checki "empty now" 0 (Core.Mempool.pending_requests m)

let test_mempool_oldest_age () =
  let m = Core.Mempool.create () in
  checkb "empty none" true (Core.Mempool.oldest_age m ~now:(Sim_time.s 1) = None);
  Core.Mempool.add m (Workload.Request.make ~id:9999 ~count:1 ~size_each:1 ~born:(Sim_time.ms 200) ());
  (match Core.Mempool.oldest_age m ~now:(Sim_time.ms 500) with
   | Some age -> Alcotest.(check int64) "age" (Sim_time.ms 300) age
   | None -> Alcotest.fail "expected age")

let test_mempool_take_partial () =
  let m = Core.Mempool.create () in
  Core.Mempool.add m (batch ~count:2 ());
  let taken = Core.Mempool.take m ~target:100 in
  checki "partial take returns what exists" 1 (List.length taken)

(* -- Datablock_pool ---------------------------------------------------------------- *)

let mk_db ?(creator = 0) ?(counter = 1) ?(batches = [ batch () ]) sk =
  Core.Datablock.create ~sk ~creator ~counter ~now:Sim_time.zero batches

let test_pool_accept_duplicate_equivocation () =
  let _, sk = keypair () in
  let pool = Core.Datablock_pool.create () in
  let db1 = mk_db sk in
  checkb "accepted" true (Core.Datablock_pool.add pool db1 = Core.Datablock_pool.Accepted);
  checkb "duplicate" true (Core.Datablock_pool.add pool db1 = Core.Datablock_pool.Duplicate);
  let db2 = mk_db ~batches:[ batch (); batch () ] sk in
  (match Core.Datablock_pool.add pool db2 with
   | Core.Datablock_pool.Equivocation first ->
     checkb "evidence is first copy" true
       (Crypto.Hash.equal (Core.Datablock.hash first) (Core.Datablock.hash db1))
   | _ -> Alcotest.fail "expected equivocation");
  checki "evidence recorded" 1 (List.length (Core.Datablock_pool.equivocations pool));
  (* The variant is stored (the leader may have linked it) but never
     enters this replica's own proposal path. *)
  checkb "equivocating copy stored for link resolution" true
    (Core.Datablock_pool.mem pool (Core.Datablock.hash db2));
  checki "but not pending" 1 (Core.Datablock_pool.pending pool)

let test_pool_pending_take () =
  let _, sk = keypair () in
  let pool = Core.Datablock_pool.create () in
  let dbs = List.init 5 (fun i -> mk_db ~counter:(i + 1) sk) in
  List.iter (fun db -> ignore (Core.Datablock_pool.add pool db)) dbs;
  checki "pending" 5 (Core.Datablock_pool.pending pool);
  let taken = Core.Datablock_pool.take_pending pool ~max:3 in
  checki "taken" 3 (List.length taken);
  checkb "oldest first" true
    (Core.Datablock.hash (List.hd taken) = Core.Datablock.hash (List.hd dbs));
  checki "pending after" 2 (Core.Datablock_pool.pending pool);
  (* taking again skips the linked ones *)
  checki "take rest" 2 (List.length (Core.Datablock_pool.take_pending pool ~max:10))

let test_pool_mark_linked_and_missing () =
  let _, sk = keypair () in
  let pool = Core.Datablock_pool.create () in
  let db = mk_db sk in
  ignore (Core.Datablock_pool.add pool db);
  let h = Core.Datablock.hash db in
  let ghost = Crypto.Hash.of_string "ghost" in
  Alcotest.(check (list string))
    "missing links" [ Crypto.Hash.to_hex ghost ]
    (List.map Crypto.Hash.to_hex (Core.Datablock_pool.missing_links pool [ h; ghost ]));
  Core.Datablock_pool.mark_linked pool h;
  checki "linked removed from pending" 0 (Core.Datablock_pool.pending pool)

let test_pool_relink_pending () =
  let module P = Core.Datablock_pool in
  let _, sk = keypair () in
  let pool = P.create () in
  let db1 = mk_db ~counter:1 sk and db2 = mk_db ~counter:2 sk and db3 = mk_db ~counter:3 sk in
  let db4 = mk_db ~counter:4 sk in
  List.iter (fun db -> ignore (P.add pool db)) [ db1; db2; db3; db4 ];
  P.mark_linked pool (Core.Datablock.hash db1);
  P.mark_linked pool (Core.Datablock.hash db2);
  P.mark_executed pool (Core.Datablock.hash db3) ~sn:1;
  checki "db4 pending" 1 (P.pending pool);
  (* db1 stays linked (kept), db2 returns to pending, db3 stays
     executed, db4 (kept: a redo block links it) becomes linked *)
  P.relink_pending pool
    ~keep_linked:(Crypto.Hash.Set.of_list (List.map Core.Datablock.hash [ db1; db4 ]));
  Alcotest.(check (list int))
    "only db2 offered" [ 2 ]
    (List.map (fun (db : Core.Datablock.t) -> db.header.counter) (P.take_pending pool ~max:10))

(* A rival variant is never relinked: after a view change the new leader
   offers the variant it accepted, not both. *)
let test_pool_relink_skips_rival () =
  let module P = Core.Datablock_pool in
  let _, sk = keypair () in
  let pool = P.create () in
  let a = mk_db sk and a' = mk_db ~batches:[ batch (); batch () ] sk in
  ignore (P.add pool a);
  ignore (P.add pool a');
  P.relink_pending pool ~keep_linked:Crypto.Hash.Set.empty;
  Alcotest.(check (list string))
    "take_pending returns [a]"
    [ Crypto.Hash.to_hex (Core.Datablock.hash a) ]
    (List.map (fun db -> Crypto.Hash.to_hex (Core.Datablock.hash db)) (P.take_pending pool ~max:10))

(* Linking or executing a rival decides its slot: the variant this pool
   accepted there is offered no more, and a view change does not bring
   it back. *)
let test_pool_linked_rival_demotes_variant () =
  let module P = Core.Datablock_pool in
  let _, sk = keypair () in
  List.iter
    (fun (name, decide) ->
      let pool = P.create () in
      let a = mk_db sk and a' = mk_db ~batches:[ batch (); batch () ] sk in
      ignore (P.add pool a);
      ignore (P.add pool a');
      decide pool (Core.Datablock.hash a');
      checki (name ^ ": nothing pending") 0 (P.pending pool);
      P.relink_pending pool ~keep_linked:Crypto.Hash.Set.empty;
      checki (name ^ ": nothing offered after a relink") 0
        (List.length (P.take_pending pool ~max:10));
      checkb (name ^ ": both variants resolvable") true
        (P.has_all_links pool (List.map Core.Datablock.hash [ a; a' ])))
    [ ("linked", P.mark_linked); ("executed", fun pool h -> P.mark_executed pool h ~sn:1) ]

(* Marks every datablock in [dbs] executed by serial 1 and prunes at 1. *)
let execute_and_prune pool dbs =
  List.iter (fun db -> Core.Datablock_pool.mark_executed pool (Core.Datablock.hash db) ~sn:1) dbs;
  Core.Datablock_pool.prune pool ~lw:1

let test_pool_prune () =
  let _, sk = keypair () in
  let pool = Core.Datablock_pool.create () in
  let db1 = mk_db ~counter:1 sk and db2 = mk_db ~counter:2 sk and db3 = mk_db ~counter:3 sk in
  List.iter (fun db -> ignore (Core.Datablock_pool.add pool db)) [ db1; db2; db3 ];
  Core.Datablock_pool.mark_executed pool (Core.Datablock.hash db1) ~sn:1;
  Core.Datablock_pool.mark_executed pool (Core.Datablock.hash db2) ~sn:2;
  checki "two executed" 2 (Core.Datablock_pool.executed pool);
  Core.Datablock_pool.prune pool ~lw:1;
  checki "two left" 2 (Core.Datablock_pool.size pool);
  checkb "pruned gone" false (Core.Datablock_pool.mem pool (Core.Datablock.hash db1));
  checkb "executed above lw kept" true (Core.Datablock_pool.mem pool (Core.Datablock.hash db2));
  checki "pending one" 1 (Core.Datablock_pool.pending pool)

(* A checkpoint prune forgets executed datablocks but keeps their slots:
   a late copy or a replay is refused, a requested fetch reply is not. *)
let test_pool_refuses_executed_slot () =
  let _, sk = keypair () in
  let pool = Core.Datablock_pool.create () in
  let dbs = List.init 3 (fun i -> mk_db ~counter:(i + 1) sk) in
  List.iter (fun db -> ignore (Core.Datablock_pool.add pool db)) dbs;
  execute_and_prune pool dbs;
  let db1 = List.hd dbs in
  checkb "replay refused" true (Core.Datablock_pool.add pool db1 = Core.Datablock_pool.Executed);
  checkb "equivocating variant of an executed slot refused" true
    (Core.Datablock_pool.add pool (mk_db ~counter:2 ~batches:[ batch (); batch () ] sk)
     = Core.Datablock_pool.Executed);
  checki "nothing stored" 0 (Core.Datablock_pool.size pool);
  checki "nothing pending" 0 (Core.Datablock_pool.pending pool);
  checkb "next counter accepted" true
    (Core.Datablock_pool.add pool (mk_db ~counter:4 sk) = Core.Datablock_pool.Accepted);
  checkb "requested fetch reply below the floor accepted" true
    (Core.Datablock_pool.add ~requested:true pool db1 = Core.Datablock_pool.Accepted);
  checkb "other creators unaffected" true
    (Core.Datablock_pool.add pool (mk_db ~creator:1 ~counter:1 sk)
     = Core.Datablock_pool.Accepted)

(* The floor is contiguous: a counter executed out of order sits above
   it until the gap fills, and the gap's counters stay admissible. *)
let test_pool_floor_contiguous () =
  let _, sk = keypair () in
  let pool = Core.Datablock_pool.create () in
  let prune_counters cs =
    let dbs = List.map (fun c -> mk_db ~counter:c sk) cs in
    List.iter (fun db -> ignore (Core.Datablock_pool.add pool db)) dbs;
    execute_and_prune pool dbs
  in
  let floor () =
    match Core.Datablock_pool.floors pool with
    | [ f ] -> (f.Core.Datablock_pool.base, f.Core.Datablock_pool.above)
    | _ -> Alcotest.fail "expected one creator floor"
  in
  prune_counters [ 1; 2; 4; 6 ];
  checkb "base 2, above [4; 6]" true (floor () = (2, [ 4; 6 ]));
  let db3 = mk_db ~counter:3 sk in
  checkb "gap counter 3 admissible" true
    (Core.Datablock_pool.add pool db3 = Core.Datablock_pool.Accepted);
  execute_and_prune pool [ db3 ];
  checkb "gap filled: base 4, above [6]" true (floor () = (4, [ 6 ]));
  checkb "gap counter 5 still admissible" true
    (Core.Datablock_pool.add pool (mk_db ~counter:5 sk) = Core.Datablock_pool.Accepted)

(* Above a gap that never fills, the window caps what the floor holds:
   on overflow the floor advances past the oldest gap. *)
let test_pool_floor_window () =
  let _, sk = keypair () in
  let pool = Core.Datablock_pool.create () in
  let window = Core.Datablock_pool.floor_window in
  (* counter 1 never executes; 2 .. window + 1 do, then one more *)
  let execute counters =
    let dbs = List.map (fun c -> mk_db ~counter:c sk) counters in
    List.iter (fun db -> ignore (Core.Datablock_pool.add pool db)) dbs;
    execute_and_prune pool dbs
  in
  let floor () =
    match Core.Datablock_pool.floors pool with
    | [ f ] -> f
    | _ -> Alcotest.fail "expected one creator floor"
  in
  execute (List.init window (fun i -> i + 2));
  checki "held above the gap up to the window" window
    (List.length (floor ()).Core.Datablock_pool.above);
  checki "floor below the gap" 0 (floor ()).Core.Datablock_pool.base;
  execute [ window + 2 ];
  checki "overflow: floor jumped the gap" (window + 2) (floor ()).Core.Datablock_pool.base;
  checkb "nothing held above" true ((floor ()).Core.Datablock_pool.above = []);
  checkb "skipped counter now refused" true
    (Core.Datablock_pool.add pool (mk_db ~counter:1 sk) = Core.Datablock_pool.Executed);
  (* restore_floors installs a snapshot's floors in a fresh pool *)
  let fresh = Core.Datablock_pool.create () in
  Core.Datablock_pool.restore_floors fresh (Core.Datablock_pool.floors pool);
  checkb "restored floors refuse the same slots" true
    (Core.Datablock_pool.add fresh (mk_db ~counter:5 sk) = Core.Datablock_pool.Executed)

(* [pending] is a counter kept by every state change; the reference
   counts the stored unlinked entries. A universe of 3 creators x 3
   counters x 2 variants gives duplicates, equivocations (Rival entries),
   executed slots and requested fetch replies. [take_pending] may only
   hand out a datablock that [add] answered [Accepted] for and that has
   not been executed since: never a Rival, never an Executed entry. No
   datablock [add] answered [Equivocation] for, and not executed since,
   may outlive a [prune] whose floors cover its slot. *)
type pool_op =
  | Add of int * bool  (* universe index, requested *)
  | Mark of int
  | Take of int
  | Relink of int  (* keep-linked mask over the universe *)
  | Execute of int * int  (* universe index, serial *)
  | Prune of int  (* low watermark *)

let pool_universe =
  let _, sk = keypair () in
  Array.init 18 (fun i ->
      mk_db ~creator:(i / 6) ~counter:(1 + (i / 2 mod 3))
        ~batches:[ batch ~count:(1 + (i mod 2)) () ] sk)

let hashes_in mask =
  List.filteri (fun i _ -> (mask lsr i) land 1 = 1) (Array.to_list pool_universe)
  |> List.map Core.Datablock.hash

let pool_op_gen =
  let n = Array.length pool_universe in
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun i r -> Add (i, r)) (int_bound (n - 1)) (frequencyl [ (4, false); (1, true) ]));
        (2, map (fun i -> Mark i) (int_bound (n - 1)));
        (2, map (fun k -> Take k) (int_bound 3));
        (1, map (fun m -> Relink m) (int_bound ((1 lsl n) - 1)));
        (2, map2 (fun i sn -> Execute (i, sn)) (int_bound (n - 1)) (int_range 1 3));
        (1, map (fun lw -> Prune lw) (int_bound 3)) ])

let pp_pool_op = function
  | Add (i, r) -> Printf.sprintf "add %d%s" i (if r then " requested" else "")
  | Mark i -> Printf.sprintf "mark %d" i
  | Take k -> Printf.sprintf "take %d" k
  | Relink m -> Printf.sprintf "relink keep=%x" m
  | Execute (i, sn) -> Printf.sprintf "execute %d sn%d" i sn
  | Prune lw -> Printf.sprintf "prune lw=%d" lw

let prop_pool_pending_count =
  QCheck.Test.make ~name:"pending = stored unlinked count" ~count:2000
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_pool_op ops))
       QCheck.Gen.(list_size (int_range 1 40) pool_op_gen))
    (fun ops ->
      let module P = Core.Datablock_pool in
      let pool = P.create () in
      let hash_of i = Core.Datablock.hash pool_universe.(i) in
      let unlinked () = P.fold pool ~init:0 ~f:(fun acc _ ~linked -> if linked then acc else acc + 1) in
      (* hashes [add] accepted and nothing executed since *)
      let offerable = Crypto.Hash.Table.create 16 in
      let rivals = Crypto.Hash.Table.create 16 in
      let floored (db : Core.Datablock.t) =
        let { Core.Datablock.creator; counter; _ } = db.Core.Datablock.header in
        List.exists
          (fun (f : P.floor) ->
            f.P.creator = creator && (counter <= f.P.base || List.mem counter f.P.above))
          (P.floors pool)
      in
      List.for_all
        (fun op ->
          (match op with
           | Add (i, requested) -> (
             match P.add ~requested pool pool_universe.(i) with
             | P.Accepted ->
               Crypto.Hash.Table.replace offerable (hash_of i) ();
               Crypto.Hash.Table.remove rivals (hash_of i)
             | P.Equivocation _ -> Crypto.Hash.Table.replace rivals (hash_of i) ()
             | P.Duplicate | P.Executed -> ())
           | Mark i -> P.mark_linked pool (hash_of i)
           | Take k ->
             let before = P.pending pool in
             let got = P.take_pending pool ~max:k in
             if List.length got <> min k before then
               QCheck.Test.fail_reportf "took %d of %d pending (max %d)" (List.length got) before k;
             List.iter
               (fun db ->
                 if not (Crypto.Hash.Table.mem offerable (Core.Datablock.hash db)) then
                   QCheck.Test.fail_reportf "took a rival or executed datablock")
               got
           | Relink keep ->
             P.relink_pending pool ~keep_linked:(Crypto.Hash.Set.of_list (hashes_in keep))
           | Execute (i, sn) ->
             P.mark_executed pool (hash_of i) ~sn;
             Crypto.Hash.Table.remove offerable (hash_of i);
             Crypto.Hash.Table.remove rivals (hash_of i)
           | Prune lw ->
             P.prune pool ~lw;
             P.fold pool ~init:() ~f:(fun () db ~linked:_ ->
                 if Crypto.Hash.Table.mem rivals (Core.Datablock.hash db) && floored db then
                   QCheck.Test.fail_reportf "a rival of a floored slot survived prune"));
          P.pending pool = unlinked ())
        ops)

(* -- Quorum ----------------------------------------------------------------------- *)

let _tsetup, tkeys = Crypto.Threshold.keygen rng ~threshold:2 ~parties:5

let test_quorum_ready_once () =
  let q = Core.Quorum.create ~need:3 in
  let share i = Crypto.Threshold.sign_share tkeys.(i) "m" in
  (match Core.Quorum.add q (share 0) with
   | Core.Quorum.Pending 1 -> ()
   | _ -> Alcotest.fail "expected pending 1");
  (* duplicate member ignored *)
  (match Core.Quorum.add q (share 0) with
   | Core.Quorum.Pending 1 -> ()
   | _ -> Alcotest.fail "duplicate counted");
  ignore (Core.Quorum.add q (share 1));
  (match Core.Quorum.add q (share 2) with
   | Core.Quorum.Ready shares -> checki "released all" 3 (List.length shares)
   | _ -> Alcotest.fail "expected ready");
  (match Core.Quorum.add q (share 3) with
   | Core.Quorum.Already_done -> ()
   | _ -> Alcotest.fail "expected done");
  checkb "is_done" true (Core.Quorum.is_done q)

(* -- Ledger ----------------------------------------------------------------------- *)

let blk sn = Core.Bftblock.create ~view:1 ~sn ~links:(some_links 1)

let test_ledger_sequential_execution () =
  let l = Core.Ledger.create () in
  Core.Ledger.confirm l (blk 2);
  checkb "gap blocks execution" true (Core.Ledger.next_executable l = None);
  Core.Ledger.confirm l (blk 1);
  (match Core.Ledger.next_executable l with
   | Some b -> checki "sn 1 first" 1 b.Core.Bftblock.sn
   | None -> Alcotest.fail "expected executable");
  Core.Ledger.mark_executed l 1;
  Core.Ledger.mark_executed l 2;
  checki "executed" 2 (Core.Ledger.executed_up_to l);
  checki "confirmed count" 2 (Core.Ledger.confirmed_count l);
  checki "highest" 2 (Core.Ledger.highest_confirmed l)

let test_ledger_reconfirm_noop () =
  let l = Core.Ledger.create () in
  Core.Ledger.confirm l (blk 1);
  Core.Ledger.confirm l (blk 1);
  checki "counted once" 1 (Core.Ledger.confirmed_count l)

let test_ledger_fast_forward_and_prune () =
  let l = Core.Ledger.create () in
  Core.Ledger.confirm l (blk 1);
  Core.Ledger.confirm l (blk 2);
  Core.Ledger.fast_forward l 5;
  checki "jumped" 5 (Core.Ledger.executed_up_to l);
  Core.Ledger.fast_forward l 3;
  checki "never backwards" 5 (Core.Ledger.executed_up_to l);
  Core.Ledger.prune_below l 2;
  checkb "pruned" true (Core.Ledger.get l 1 = None)

let test_ledger_executed_range () =
  let l = Core.Ledger.create () in
  List.iter (fun sn -> Core.Ledger.confirm l (blk sn)) [ 1; 2; 3 ];
  List.iter (Core.Ledger.mark_executed l) [ 1; 2; 3 ];
  checki "range size" 2 (List.length (Core.Ledger.executed_range l ~from_:1))

(* -- Msg sizes & payloads ----------------------------------------------------------- *)

let test_msg_wire_sizes () =
  let _, sk = keypair () in
  let db = mk_db sk in
  let share = Crypto.Threshold.sign_share tkeys.(0) "m" in
  let vote =
    Core.Msg.Prepare_vote { view = 1; sn = 1; block_hash = Crypto.Hash.of_string "h"; share }
  in
  checkb "vote is small" true (Core.Msg.wire_size vote < 200);
  checkb "datablock carries payload" true
    (Core.Msg.wire_size (Core.Msg.Datablock_msg db) > 600);
  Alcotest.(check string) "datablock category" "datablock"
    (Core.Msg.category (Core.Msg.Datablock_msg db));
  checkb "datablock low priority" true
    (Core.Msg.priority (Core.Msg.Datablock_msg db) = Net.Nic.Low);
  checkb "vote high priority" true (Core.Msg.priority vote = Net.Nic.High)

let test_msg_payload_domain_separation () =
  let h = Crypto.Hash.of_string "x" in
  checkb "prepare != commit" true
    (Core.Msg.prepare_payload ~view:1 ~block_hash:h
     <> Core.Msg.commit_payload ~view:1 ~notar_digest:h);
  checkb "view binds" true
    (Core.Msg.prepare_payload ~view:1 ~block_hash:h
     <> Core.Msg.prepare_payload ~view:2 ~block_hash:h)

let test_msg_view_change_sizes_scale () =
  let _, sk = keypair () in
  let entry v sn =
    (v, Core.Bftblock.create ~view:v ~sn ~links:(some_links 10),
     (* a structurally valid aggregate: combine real shares *)
     match
       Crypto.Threshold.combine _tsetup "m"
         (List.init 3 (fun i -> Crypto.Threshold.sign_share tkeys.(i) "m"))
     with
     | Some a -> a
     | None -> Alcotest.fail "combine")
  in
  let vc entries =
    Core.Msg.
      { vc_new_view = 2;
        vc_sender = 0;
        vc_checkpoint = None;
        vc_entries = entries;
        vc_signature = Crypto.Signature.sign sk "x" }
  in
  let small = Core.Msg.wire_size (Core.Msg.View_change_msg (vc [ entry 1 1 ])) in
  let big = Core.Msg.wire_size (Core.Msg.View_change_msg (vc (List.init 8 (entry 1)))) in
  checkb "VC size grows with entries" true (big > 4 * small / 2);
  let nv k =
    Core.Msg.wire_size
      (Core.Msg.New_view_msg
         Core.Msg.
           { nv_view = 2;
             nv_sender = 0;
             nv_vcs = List.init k (fun _ -> vc [ entry 1 1 ]);
             nv_signature = Crypto.Signature.sign sk "y" })
  in
  checkb "NV size ~ linear in carried VCs" true (nv 6 > 5 * nv 1 / 2)

(* -- view-change watchdog ---------------------------------------------- *)

let wd_timeout = Sim_time.ms 100

let test_watchdog_stale_behind_confirmed () =
  let w = Core.Watchdog.create () in
  (* 200 re-sent requests, confirmed soon after they are watched (the
     length passes the compaction threshold on the way), then one that
     never confirms. *)
  for i = 0 to 199 do
    let b = batch () in
    Core.Watchdog.watch w ~now:(Sim_time.ms i) b;
    Workload.Request.mark_confirmed b
  done;
  Core.Watchdog.watch w ~now:(Sim_time.ms 200) (batch ());
  checkb "the stale request is due a full timeout after it arrived" true
    (Core.Watchdog.next_due w ~timeout:wd_timeout ~grace_end:Sim_time.zero
     = Some (Sim_time.ms 300));
  checki "confirmed requests ahead of it were dropped" 1 (Core.Watchdog.length w)

let test_watchdog_all_confirmed () =
  let w = Core.Watchdog.create () in
  let bs = List.init 50 (fun _ -> batch ()) in
  List.iteri (fun i b -> Core.Watchdog.watch w ~now:(Sim_time.ms i) b) bs;
  List.iter Workload.Request.mark_confirmed bs;
  checkb "nothing is due when every request is confirmed" true
    (Core.Watchdog.next_due w ~timeout:wd_timeout ~grace_end:Sim_time.zero = None);
  checki "all dropped" 0 (Core.Watchdog.length w);
  let b = batch () in
  Workload.Request.mark_confirmed b;
  Core.Watchdog.watch w ~now:(Sim_time.s 61) b;
  checki "a confirmed request is not watched" 0 (Core.Watchdog.length w)

let test_watchdog_grace () =
  let w = Core.Watchdog.create () in
  let b = batch () in
  Core.Watchdog.watch w ~now:Sim_time.zero b;
  (* Watching the same id again keeps the first instant. *)
  Core.Watchdog.watch w ~now:(Sim_time.s 5) b;
  let due grace_end = Core.Watchdog.next_due w ~timeout:wd_timeout ~grace_end in
  checkb "due when the grace period ends" true (due (Sim_time.s 1) = Some (Sim_time.s 1));
  checkb "due a timeout after the first watch once the grace has ended" true
    (due Sim_time.zero = Some wd_timeout);
  checki "re-watching an id adds nothing" 1 (Core.Watchdog.length w)

let test_silent_f_selection () =
  let cfg = Core.Config.make ~n:10 () in
  let byz = Core.Runner.silent_f cfg in
  checki "exactly f" 3 (List.length byz);
  let leader = Core.Config.leader_of_view cfg 1 in
  checkb "leader never Byzantine" false (List.mem_assoc leader byz);
  checkb "all silent" true
    (List.for_all (fun (_, s) -> s = Core.Byzantine.Silent) byz)

(* -- Scaling factor (§5.2 formulas) --------------------------------------------------- *)

let test_sf_formulas () =
  let beta = 32. in
  (* alpha = lambda (n-1): SF constant in n *)
  let sf n =
    Core.Scaling_factor.leopard_sf ~alpha_bytes:(Core.Scaling_factor.recommended_alpha_bytes ~lambda_coeff:64. ~n) ~beta ~n
  in
  (* SF converges to 2 + β/α; with α = λ(n-1) the bound is constant in n
     up to the vanishing β/α term. *)
  checkb "constant SF" true (Float.abs (sf 64 -. sf 600) < 0.01);
  Alcotest.(check (float 1e-9)) "hotstuff linear" 599. (Core.Scaling_factor.hotstuff_sf ~n:600);
  checkb "leopard CE near 1/2" true
    (Core.Scaling_factor.leopard_cost_effectiveness ~alpha_bytes:512_000. ~beta > 0.49);
  Alcotest.(check (float 1e-12)) "hotstuff CE 1/(n-1)" (1. /. 299.)
    (Core.Scaling_factor.hotstuff_cost_effectiveness ~n:300)

let test_sf_workloads () =
  let lambda = 12_800_000. (* 1e5 req/s * 128 B *) in
  let g1 = Core.Scaling_factor.leopard_leader_workload ~lambda ~alpha_bytes:512_000. ~beta:32. ~n:300 in
  let g2 =
    Core.Scaling_factor.leopard_nonleader_workload ~lambda ~alpha_bytes:512_000. ~beta:32. ~n:300
  in
  (* Eq. 2: leader ~ lambda (hash traffic negligible at large alpha) *)
  checkb "leader near lambda" true (g1 < 1.1 *. lambda);
  (* Eq. 3: non-leader ~ 2 lambda *)
  checkb "non-leader near 2 lambda" true (g2 > 1.8 *. lambda && g2 < 2.2 *. lambda);
  Alcotest.(check (float 1e-9)) "measured SF" 2.0
    (Core.Scaling_factor.measured_sf ~lambda_bytes_per_sec:10. ~replica_bytes_per_sec:[ 5.; 20.; 10. ])

(* -- Hash inputs: byte-identical to the Printf formats they replaced ---- *)

(* Edge values first, so the boundaries are always tried. *)
let int_edge =
  QCheck.make ~print:string_of_int
    QCheck.Gen.(
      frequency
        [ (1, oneofl [ 0; 1; -1; 9; 10; -10; 99; 100; min_int; max_int; min_int + 1 ]);
          (3, int);
          (3, int_range (-1000) 1000) ])

let int64_edge =
  QCheck.make ~print:Int64.to_string
    QCheck.Gen.(
      frequency
        [ (1, oneofl [ 0L; -1L; Int64.min_int; Int64.max_int; Int64.of_int max_int; Int64.of_int min_int;
                       Int64.succ (Int64.of_int max_int); Int64.pred (Int64.of_int min_int) ]);
          (3, map Int64.of_int int);
          (3, ui64) ])

let prop_request_encode_matches_printf =
  QCheck.Test.make ~name:"Request.encode = the batch:%d:%d:%d:%Ld:%b format" ~count:2000
    QCheck.(quad int_edge int_edge (pair int_edge int64_edge) bool)
    (fun (id, count, (size_each, born), resend) ->
      let r = { Workload.Request.id; count; size_each; born; resend; confirmed = ref false } in
      String.equal (Workload.Request.encode r)
        (Printf.sprintf "batch:%d:%d:%d:%Ld:%b" id count size_each born resend))

let prop_request_hash_into =
  QCheck.Test.make ~name:"Request.hash_into = Request.hash" ~count:2000
    QCheck.(quad int_edge int_edge (pair int_edge int64_edge) bool)
    (fun (id, count, (size_each, born), resend) ->
      let r = { Workload.Request.id; count; size_each; born; resend; confirmed = ref false } in
      let dst = Bytes.make 40 '\000' in
      Workload.Request.hash_into r dst 3;
      String.equal (Bytes.sub_string dst 3 32) (Crypto.Hash.raw (Workload.Request.hash r)))

let prop_header_encoding_matches_printf =
  QCheck.Test.make ~name:"Datablock.header_encoding = the dbhdr:%d:%d:%s format" ~count:2000
    QCheck.(triple int_edge int_edge string)
    (fun (creator, counter, seed) ->
      let digest = Crypto.Hash.of_string seed in
      String.equal
        (Core.Datablock.header_encoding { Core.Datablock.creator; counter; digest })
        (Printf.sprintf "dbhdr:%d:%d:%s" creator counter (Crypto.Hash.raw digest)))

let () =
  Alcotest.run "core-units"
    [ ( "config",
        [ Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "table 2" `Quick test_config_table2;
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "leader rotation" `Quick test_config_leader_rotation ] );
      ( "datablock",
        [ Alcotest.test_case "create & verify" `Quick test_datablock_create_verify;
          Alcotest.test_case "wrong key" `Quick test_datablock_wrong_key_rejected;
          Alcotest.test_case "bad digest" `Quick test_datablock_bad_digest_rejected;
          Alcotest.test_case "hash binds content" `Quick test_datablock_hash_binds_content ] );
      ( "hash inputs",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [ prop_request_encode_matches_printf; prop_request_hash_into;
            prop_header_encoding_matches_printf ] );
      ( "bftblock",
        [ Alcotest.test_case "view-independent hash" `Quick test_bftblock_hash_view_independent;
          Alcotest.test_case "hash binds links/sn" `Quick test_bftblock_hash_binds_links;
          Alcotest.test_case "dummy" `Quick test_bftblock_dummy ] );
      ( "mempool",
        [ Alcotest.test_case "fifo take" `Quick test_mempool_take_fifo;
          Alcotest.test_case "skips confirmed" `Quick test_mempool_skips_confirmed;
          Alcotest.test_case "oldest age" `Quick test_mempool_oldest_age;
          Alcotest.test_case "partial take" `Quick test_mempool_take_partial ] );
      ( "datablock pool",
        [ Alcotest.test_case "accept/duplicate/equivocation" `Quick
            test_pool_accept_duplicate_equivocation;
          Alcotest.test_case "pending & take" `Quick test_pool_pending_take;
          Alcotest.test_case "mark linked & missing" `Quick test_pool_mark_linked_and_missing;
          Alcotest.test_case "relink pending" `Quick test_pool_relink_pending;
          Alcotest.test_case "relink skips a rival" `Quick test_pool_relink_skips_rival;
          Alcotest.test_case "a linked rival demotes the variant" `Quick
            test_pool_linked_rival_demotes_variant;
          Alcotest.test_case "prune" `Quick test_pool_prune;
          Alcotest.test_case "refuses executed slot" `Quick test_pool_refuses_executed_slot;
          Alcotest.test_case "floor is contiguous" `Quick test_pool_floor_contiguous;
          Alcotest.test_case "floor window" `Quick test_pool_floor_window;
          QCheck_alcotest.to_alcotest ~long:false prop_pool_pending_count ] );
      ("quorum", [ Alcotest.test_case "ready once" `Quick test_quorum_ready_once ]);
      ( "ledger",
        [ Alcotest.test_case "sequential execution" `Quick test_ledger_sequential_execution;
          Alcotest.test_case "reconfirm noop" `Quick test_ledger_reconfirm_noop;
          Alcotest.test_case "fast forward & prune" `Quick test_ledger_fast_forward_and_prune;
          Alcotest.test_case "executed range" `Quick test_ledger_executed_range ] );
      ( "msg",
        [ Alcotest.test_case "wire sizes & channels" `Quick test_msg_wire_sizes;
          Alcotest.test_case "payload domain separation" `Quick
            test_msg_payload_domain_separation;
          Alcotest.test_case "view-change sizes scale" `Quick
            test_msg_view_change_sizes_scale ] );
      ( "watchdog",
        [ Alcotest.test_case "stale request behind confirmed ones" `Quick
            test_watchdog_stale_behind_confirmed;
          Alcotest.test_case "all confirmed" `Quick test_watchdog_all_confirmed;
          Alcotest.test_case "grace period" `Quick test_watchdog_grace ] );
      ("runner", [ Alcotest.test_case "silent_f selection" `Quick test_silent_f_selection ]);
      ( "scaling factor",
        [ Alcotest.test_case "formulas" `Quick test_sf_formulas;
          Alcotest.test_case "workloads" `Quick test_sf_workloads ] ) ]

(* Round-trip property tests for the binary wire codec. *)

let checkb = Alcotest.(check bool)

let rng = Sim.Rng.create 2026L
let tsetup, tkeys = Crypto.Threshold.keygen rng ~threshold:2 ~parties:4
let pk, sk = Crypto.Signature.keygen rng

(* -- generators --------------------------------------------------------- *)

let gen_batch =
  QCheck.Gen.(
    map
      (fun (id, count, size_each, born, resend) ->
        Workload.Request.make ~id ~count:(1 + count) ~size_each ~born:(Int64.of_int born)
          ~resend ())
      (tup5 (int_bound 1_000_000) (int_bound 500) (int_bound 4096) (int_bound 1_000_000) bool))

let gen_datablock =
  QCheck.Gen.(
    map
      (fun (creator, counter, batches, at) ->
        Core.Datablock.create ~sk ~creator ~counter:(1 + counter)
          ~now:(Int64.of_int at)
          (List.map (fun b -> b) (if batches = [] then [ Workload.Request.make ~id:0 ~count:1 ~size_each:1 ~born:0L () ] else batches)))
      (tup4 (int_bound 64) (int_bound 10_000) (list_size (int_range 1 20) gen_batch)
         (int_bound 1_000_000)))

let gen_hash = QCheck.Gen.map (fun s -> Crypto.Hash.of_string s) QCheck.Gen.string

let gen_bftblock =
  QCheck.Gen.(
    bool >>= fun dummy ->
    map
      (fun (view, sn, links) ->
        if dummy then Core.Bftblock.dummy ~view ~sn:(1 + sn)
        else Core.Bftblock.create ~view ~sn:(1 + sn) ~links)
      (tup3 (int_range 1 100) (int_bound 10_000) (list_size (int_range 0 30) gen_hash)))

let gen_share =
  QCheck.Gen.map (fun (i, m) -> Crypto.Threshold.sign_share tkeys.(i mod 4) m)
    QCheck.Gen.(tup2 (int_bound 3) string)

let gen_aggregate =
  QCheck.Gen.map
    (fun m ->
      match
        Crypto.Threshold.combine tsetup m
          (List.init 3 (fun i -> Crypto.Threshold.sign_share tkeys.(i) m))
      with
      | Some a -> a
      | None -> assert false)
    QCheck.Gen.string

let gen_signature = QCheck.Gen.map (fun m -> Crypto.Signature.sign sk m) QCheck.Gen.string

let gen_cert =
  QCheck.Gen.(
    map
      (fun (sn, h, proof) -> Core.Msg.{ cp_sn = sn; cp_state = h; cp_proof = proof })
      (tup3 (int_bound 10_000) gen_hash gen_aggregate))

let gen_view_change =
  QCheck.Gen.(
    map
      (fun (nv, sender, cp, entries, signature) ->
        Core.Msg.
          { vc_new_view = 1 + nv;
            vc_sender = sender;
            vc_checkpoint = cp;
            vc_entries = entries;
            vc_signature = signature })
      (tup5 (int_bound 50) (int_bound 63) (option gen_cert)
         (list_size (int_range 0 5)
            (map
               (fun (v, b, p) -> (1 + v, b, p))
               (tup3 (int_bound 50) gen_bftblock gen_aggregate)))
         gen_signature))

let gen_msg =
  QCheck.Gen.(
    frequency
      [ (2, map (fun db -> Core.Msg.Datablock_msg db) gen_datablock);
        ( 2,
          map
            (fun (b, s, j) -> Core.Msg.Propose { block = b; leader_share = s; justification = j })
            (tup3 gen_bftblock gen_share (option (map (fun (v, a) -> (1 + v, a)) (tup2 (int_bound 40) gen_aggregate)))) );
        ( 2,
          map
            (fun (view, sn, h, s) -> Core.Msg.Prepare_vote { view; sn; block_hash = h; share = s })
            (tup4 (int_range 1 50) (int_bound 10_000) gen_hash gen_share) );
        ( 1,
          map
            (fun (view, sn, h, p) -> Core.Msg.Notarization { view; sn; block_hash = h; proof = p })
            (tup4 (int_range 1 50) (int_bound 10_000) gen_hash gen_aggregate) );
        ( 1,
          map
            (fun (view, sn, h, s) -> Core.Msg.Commit_vote { view; sn; notar_digest = h; share = s })
            (tup4 (int_range 1 50) (int_bound 10_000) gen_hash gen_share) );
        ( 1,
          map
            (fun (view, sn, h, p) -> Core.Msg.Confirmation { view; sn; notar_digest = h; proof = p })
            (tup4 (int_range 1 50) (int_bound 10_000) gen_hash gen_aggregate) );
        ( 1,
          map
            (fun (sn, h, s) -> Core.Msg.Checkpoint_vote { cp_sn = sn; cp_state = h; share = s })
            (tup3 (int_bound 10_000) gen_hash gen_share) );
        (1, map (fun c -> Core.Msg.Checkpoint_cert_msg c) gen_cert);
        ( 1,
          map
            (fun (view, sender, s) -> Core.Msg.Timeout { view; sender; signature = s })
            (tup3 (int_range 1 50) (int_bound 63) gen_signature) );
        (1, map (fun vc -> Core.Msg.View_change_msg vc) gen_view_change);
        ( 1,
          map
            (fun (v, sender, vcs, s) ->
              Core.Msg.New_view_msg
                Core.Msg.{ nv_view = 1 + v; nv_sender = sender; nv_vcs = vcs; nv_signature = s })
            (tup4 (int_bound 50) (int_bound 63) (list_size (int_range 0 3) gen_view_change)
               gen_signature) );
        (1, map (fun h -> Core.Msg.Fetch { hash = h }) gen_hash);
        (1, map (fun db -> Core.Msg.Fetch_reply db) gen_datablock) ])

(* -- properties ---------------------------------------------------------- *)

let prop_batch_roundtrip =
  QCheck.Test.make ~name:"batch round-trips" ~count:300 (QCheck.make gen_batch) (fun b ->
      match Core.Codec.decode_batch (Core.Codec.encode_batch b) with
      | Some b' -> Core.Codec.batch_equal b b'
      | None -> false)

let prop_datablock_roundtrip =
  QCheck.Test.make ~name:"datablock round-trips, hash & verify preserved" ~count:100
    (QCheck.make gen_datablock) (fun db ->
      match Core.Codec.decode_datablock (Core.Codec.encode_datablock db) with
      | Some db' ->
        Core.Codec.datablock_equal db db'
        && Crypto.Hash.equal (Core.Datablock.hash db) (Core.Datablock.hash db')
        && Core.Datablock.verify ~pks:(Array.make 65 pk) db'
           = Core.Datablock.verify ~pks:(Array.make 65 pk) db
      | None -> false)

let prop_bftblock_roundtrip =
  QCheck.Test.make ~name:"bftblock round-trips with identical hash" ~count:200
    (QCheck.make gen_bftblock) (fun b ->
      match Core.Codec.decode_bftblock (Core.Codec.encode_bftblock b) with
      | Some b' ->
        b.Core.Bftblock.view = b'.Core.Bftblock.view
        && Core.Bftblock.equal_content b b'
        && Crypto.Hash.equal (Core.Bftblock.hash b) (Core.Bftblock.hash b')
      | None -> false)

let prop_msg_roundtrip =
  QCheck.Test.make ~name:"every message round-trips" ~count:200 (QCheck.make gen_msg) (fun m ->
      match Core.Codec.decode_msg (Core.Codec.encode_msg m) with
      | Some m' -> Core.Codec.msg_equal m m'
      | None -> false)

let prop_encoding_deterministic =
  QCheck.Test.make ~name:"encoding is deterministic" ~count:100 (QCheck.make gen_msg) (fun m ->
      String.equal (Core.Codec.encode_msg m) (Core.Codec.encode_msg m))

let prop_truncation_rejected =
  QCheck.Test.make ~name:"any strict prefix fails to decode" ~count:100 (QCheck.make gen_msg)
    (fun m ->
      let s = Core.Codec.encode_msg m in
      let cut = String.length s / 2 in
      Core.Codec.decode_msg (String.sub s 0 cut) = None)

let prop_trailing_garbage_rejected =
  QCheck.Test.make ~name:"trailing bytes fail to decode" ~count:100 (QCheck.make gen_msg)
    (fun m -> Core.Codec.decode_msg (Core.Codec.encode_msg m ^ "\x00") = None)

(* Snapshots: the executed-counter floors (and the rest of the image)
   survive a decode; re-encoding the decoded value gives the same
   bytes. *)
let gen_floor =
  QCheck.Gen.(
    map
      (fun (creator, base, gaps) ->
        let above = List.sort_uniq compare (List.map (fun g -> base + 2 + g) gaps) in
        { Core.Datablock_pool.creator; base; above })
      (tup3 (int_bound 63) (int_bound 100_000) (list_size (int_range 0 10) (int_bound 2000))))

let gen_snapshot =
  QCheck.Gen.(
    map
      (fun ((view, lw, cp), blocks, floors, dbs) ->
        Core.Store.
          { snap_view = 1 + view;
            snap_lw = lw;
            snap_next_sn = lw + 1;
            snap_db_counter = 1 + lw;
            snap_state_hash = Crypto.Hash.of_string "state";
            snap_executed_up_to = lw;
            snap_checkpoint = cp;
            snap_blocks = blocks;
            snap_executed_floors = floors;
            snap_instances = [];
            snap_datablocks = List.map (fun db -> (db, false)) dbs })
      (tup4
         (tup3 (int_bound 50) (int_bound 10_000) (option gen_cert))
         (list_size (int_range 0 4) gen_bftblock)
         (list_size (int_range 0 8) gen_floor)
         (list_size (int_range 0 2) gen_datablock)))

let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot (with executed floors) round-trips" ~count:100
    (QCheck.make gen_snapshot) (fun snap ->
      let bytes = Core.Codec.encode_snapshot snap in
      match Core.Codec.decode_snapshot bytes with
      | Some snap' ->
        snap'.Core.Store.snap_executed_floors = snap.Core.Store.snap_executed_floors
        && String.equal (Core.Codec.encode_snapshot snap') bytes
      | None -> false)

(* -- golden bytes -------------------------------------------------------- *)

(* Hex images captured from the seed codec before the zero-copy rewrite:
   the wire format is frozen, so any byte-level drift is a break, not a
   refactor. *)

let to_hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let checks = Alcotest.(check string)

let test_golden_batch () =
  let b =
    Workload.Request.make ~id:7 ~count:3 ~size_each:128 ~born:123456789L ~resend:true ()
  in
  checks "batch bytes" "07000000030000008000000015cd5b070000000001"
    (to_hex (Core.Codec.encode_batch b))

let test_golden_bftblock () =
  let links = [ Crypto.Hash.of_string "a"; Crypto.Hash.of_string "b" ] in
  let blk = Core.Bftblock.create ~view:1 ~sn:2 ~links in
  checks "bftblock bytes"
    "0100000002000000000200000020000000ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb200000003e23e8160039594a33894f6564e1b1348bbd7a0088d42c4acb73eeaed59c009d"
    (to_hex (Core.Codec.encode_bftblock blk));
  let dummy = Core.Bftblock.dummy ~view:5 ~sn:9 in
  checks "dummy bftblock bytes" "05000000090000000100000000"
    (to_hex (Core.Codec.encode_bftblock dummy))

let test_golden_fetch () =
  checks "fetch bytes" "0b20000000ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (to_hex (Core.Codec.encode_msg (Core.Msg.Fetch { hash = Crypto.Hash.of_string "abc" })))

(* The view-change family: deterministic values (fixed rng seed above),
   hex captured once and frozen like the rest of the golden set. *)

let golden_aggregate =
  match
    Crypto.Threshold.combine tsetup "golden"
      (List.init 3 (fun i -> Crypto.Threshold.sign_share tkeys.(i) "golden"))
  with
  | Some a -> a
  | None -> assert false

let golden_timeout =
  Core.Msg.Timeout
    { view = 3; sender = 2; signature = Crypto.Signature.sign sk (Core.Msg.timeout_payload ~view:3) }

let golden_view_change =
  let entry_block = Core.Bftblock.create ~view:3 ~sn:17 ~links:[ Crypto.Hash.of_string "L" ] in
  let vc =
    { Core.Msg.vc_new_view = 4;
      vc_sender = 1;
      vc_checkpoint =
        Some
          { Core.Msg.cp_sn = 16;
            cp_state = Crypto.Hash.of_string "state";
            cp_proof = golden_aggregate };
      vc_entries = [ (3, entry_block, golden_aggregate) ];
      vc_signature = Crypto.Signature.sign sk "vc" }
  in
  { vc with Core.Msg.vc_signature = Crypto.Signature.sign sk (Core.Msg.view_change_payload vc) }

let golden_new_view =
  let nv =
    { Core.Msg.nv_view = 4; nv_sender = 0; nv_vcs = [ golden_view_change ];
      nv_signature = Crypto.Signature.sign sk "nv" }
  in
  { nv with Core.Msg.nv_signature = Crypto.Signature.sign sk (Core.Msg.new_view_payload nv) }

let golden_timeout_hex =
  "080300000002000000200000000381e97c53104c69e5ecd8ede16ae8f42337d6ba911a71ecd9a090902cdecadf"

let golden_view_change_hex =
  "0904000000010000000110000000200000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4ee0f4825d0100000003000000030000001100000000010000002000000072dfcfb0c470ac255cde83fb8fe38de8a128188e03ea5ba5b2a93adbea1062fae0f4825d20000000be99d4c7b1e30407624e06d23e6bf19ae9996ba5cd2f9146925683261362f77a"

let golden_new_view_hex =
  "0a04000000000000000100000004000000010000000110000000200000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4ee0f4825d0100000003000000030000001100000000010000002000000072dfcfb0c470ac255cde83fb8fe38de8a128188e03ea5ba5b2a93adbea1062fae0f4825d20000000be99d4c7b1e30407624e06d23e6bf19ae9996ba5cd2f9146925683261362f77a2000000005965dfda4eb71ccab0fe3dc471c6db43cf923fa28172f587a9c79949ad96914"

let test_golden_timeout () =
  checks "timeout bytes" golden_timeout_hex (to_hex (Core.Codec.encode_msg golden_timeout))

let test_golden_view_change () =
  checks "view-change bytes" golden_view_change_hex
    (to_hex (Core.Codec.encode_msg (Core.Msg.View_change_msg golden_view_change)))

let test_golden_new_view () =
  checks "new-view bytes" golden_new_view_hex
    (to_hex (Core.Codec.encode_msg (Core.Msg.New_view_msg golden_new_view)))

(* -- integer boundaries -------------------------------------------------- *)

let test_u32_boundaries () =
  (* Max u32 view survives the round trip; i64 extremes survive in [born]. *)
  let m =
    Core.Msg.Timeout
      { view = 0xFFFFFFFF; sender = 0; signature = Crypto.Signature.sign sk "t" }
  in
  (match Core.Codec.decode_msg (Core.Codec.encode_msg m) with
   | Some (Core.Msg.Timeout { view; _ }) -> Alcotest.(check int) "u32 max view" 0xFFFFFFFF view
   | _ -> Alcotest.fail "u32 max round trip failed");
  List.iter
    (fun born ->
      let b = Workload.Request.make ~id:1 ~count:1 ~size_each:1 ~born () in
      match Core.Codec.decode_batch (Core.Codec.encode_batch b) with
      | Some b' -> Alcotest.(check int64) "i64 born" born b'.Workload.Request.born
      | None -> Alcotest.fail "i64 round trip failed")
    [ Int64.max_int; Int64.min_int; 0L; -1L ]

let test_encode_error_on_negative () =
  (* The old [assert (v >= 0)] vanished under -noassert; the explicit
     Encode_error must fire regardless of build flags. *)
  let bad =
    Core.Msg.Timeout { view = -1; sender = 0; signature = Crypto.Signature.sign sk "t" }
  in
  checkb "negative view raises" true
    (match Core.Codec.encode_msg bad with
     | exception Core.Codec.Encode_error _ -> true
     | _ -> false);
  let too_big =
    Core.Msg.Timeout { view = 0x1_0000_0000; sender = 0; signature = Crypto.Signature.sign sk "t" }
  in
  checkb "oversized u32 raises" true
    (match Core.Codec.encode_msg too_big with
     | exception Core.Codec.Encode_error _ -> true
     | _ -> false)

(* -- unit edges ---------------------------------------------------------- *)

let test_decode_garbage () =
  checkb "empty" true (Core.Codec.decode_msg "" = None);
  checkb "bad tag" true (Core.Codec.decode_msg "\xff" = None);
  checkb "random" true (Core.Codec.decode_msg "not a message at all" = None)

let test_decoded_share_still_verifies () =
  let msg_payload = "vote payload" in
  let share = Crypto.Threshold.sign_share tkeys.(1) msg_payload in
  let m =
    Core.Msg.Prepare_vote
      { view = 1; sn = 2; block_hash = Crypto.Hash.of_string "b"; share }
  in
  match Core.Codec.decode_msg (Core.Codec.encode_msg m) with
  | Some (Core.Msg.Prepare_vote { share = share'; _ }) ->
    checkb "decoded share verifies" true (Crypto.Threshold.verify_share tsetup share' msg_payload);
    checkb "decoded share rejects other payload" false
      (Crypto.Threshold.verify_share tsetup share' "other")
  | _ -> Alcotest.fail "round trip failed"

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "codec"
    [ ( "round trips",
        qsuite
          [ prop_batch_roundtrip;
            prop_datablock_roundtrip;
            prop_bftblock_roundtrip;
            prop_msg_roundtrip;
            prop_encoding_deterministic;
            prop_truncation_rejected;
            prop_trailing_garbage_rejected;
            prop_snapshot_roundtrip ] );
      ( "golden bytes",
        [ Alcotest.test_case "batch" `Quick test_golden_batch;
          Alcotest.test_case "bftblock" `Quick test_golden_bftblock;
          Alcotest.test_case "fetch msg" `Quick test_golden_fetch;
          Alcotest.test_case "timeout msg" `Quick test_golden_timeout;
          Alcotest.test_case "view-change msg" `Quick test_golden_view_change;
          Alcotest.test_case "new-view msg" `Quick test_golden_new_view ] );
      ( "edges",
        [ Alcotest.test_case "garbage rejected" `Quick test_decode_garbage;
          Alcotest.test_case "u32/i64 boundaries" `Quick test_u32_boundaries;
          Alcotest.test_case "encode errors" `Quick test_encode_error_on_negative;
          Alcotest.test_case "credentials survive the wire" `Quick
            test_decoded_share_still_verifies ] ) ]

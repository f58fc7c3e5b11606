(* Unit and property tests for the crypto toolkit. *)

module H = Crypto.Hash
module F = Crypto.Field

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

(* -- SHA-256 against the RFC 6234 / FIPS 180-4 vectors ------------------- *)

let sha_hex s = Crypto.Sha256.to_hex (Crypto.Sha256.digest_string s)

let test_sha256_vectors () =
  checks "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" (sha_hex "");
  checks "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" (sha_hex "abc");
  checks "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (sha_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  checks "448 bits + 1"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (sha_hex "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
              ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

let test_sha256_million_a () =
  checks "1M a's" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (sha_hex (String.make 1_000_000 'a'))

let test_sha256_1mib_pattern () =
  (* 1 MiB of a repeating 8-byte pattern, exercising the multi-block
     one-shot fast path; expected digest captured from the seed
     implementation before the unrolled rewrite. *)
  let pattern = "abcdefgh" in
  let data = String.concat "" (List.init (1_048_576 / 8) (fun _ -> pattern)) in
  checks "1MiB abcdefgh"
    "fbe8fc990d4770b55fcedfa0bf160fc168c322cb214e4786c173de06aecbd875" (sha_hex data)

let test_hmac_rfc4231 () =
  (* RFC 4231 test case 2. *)
  let tag = Crypto.Sha256.hmac ~key:"Jefe" "what do ya want for nothing?" in
  checks "hmac tc2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Crypto.Sha256.to_hex tag);
  (* RFC 4231 test case 1: 20-byte 0x0b key. *)
  let tag1 = Crypto.Sha256.hmac ~key:(String.make 20 '\x0b') "Hi There" in
  checks "hmac tc1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Crypto.Sha256.to_hex tag1);
  (* RFC 4231 test case 6: a 131-byte key, hashed before use. *)
  let tag6 =
    Crypto.Sha256.hmac ~key:(String.make 131 '\xaa')
      "Test Using Larger Than Block-Size Key - Hash Key First"
  in
  checks "hmac tc6" "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Crypto.Sha256.to_hex tag6)

(* The precomputed schedule gives the one-shot tag, short and hashed
   (over 64-byte) keys alike, and rejects any other tag. *)
let prop_hmac_verify =
  QCheck.Test.make ~name:"hmac_verify accepts only the tag" ~count:300
    QCheck.(pair (string_of_size (Gen.int_bound 150)) (string_of_size (Gen.int_bound 200)))
    (fun (key, msg) ->
      let sched = Crypto.Sha256.hmac_key key in
      let tag = Crypto.Sha256.hmac ~key msg in
      let flipped = Bytes.of_string tag in
      Bytes.set flipped 31 (Char.chr (Char.code tag.[31] lxor 1));
      Crypto.Sha256.hmac_verify sched msg ~tag
      && (not (Crypto.Sha256.hmac_verify sched msg ~tag:(Bytes.to_string flipped)))
      && not (Crypto.Sha256.hmac_verify sched msg ~tag:(String.sub tag 0 31)))

let prop_digest_bytes_into =
  QCheck.Test.make ~name:"digest_bytes_into = digest_string" ~count:300
    QCheck.(triple (string_of_size (Gen.int_bound 300)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - off = 0 then 0 else b mod (n - off + 1) in
      let dst = Bytes.make 40 '\000' in
      Crypto.Sha256.digest_bytes_into ~src:(Bytes.of_string s) ~src_off:off ~len ~dst ~dst_off:5;
      String.equal (Bytes.sub_string dst 5 32) (Crypto.Sha256.digest_string (String.sub s off len)))

(* -- The two C compressors agree ------------------------------------------ *)

module B = Crypto.Sha256.For_testing

(* Runs [f] when this CPU has SHA-NI; otherwise says why it did not. *)
let with_sha_ni f =
  if B.sha_ni_available then f ()
  else print_endline "SKIP: cpuid reports no SHA extensions; only the portable path runs"

let agree label s =
  let p = B.digest_string B.Portable s and n = B.digest_string B.Sha_ni s in
  if not (String.equal p n) then
    Alcotest.failf "%s: portable %s <> sha-ni %s" label (Crypto.Sha256.to_hex p)
      (Crypto.Sha256.to_hex n);
  checkb (label ^ " = selected backend") true (String.equal p (Crypto.Sha256.digest_string s))

let test_backends_every_short_length () =
  with_sha_ni (fun () ->
      for len = 0 to 300 do
        agree (Printf.sprintf "len %d" len) (String.init len (fun i -> Char.chr ((i * 13 + len) land 0xff)))
      done)

let test_backends_random_lengths () =
  with_sha_ni (fun () ->
      let rng = Random.State.make [| 19 |] in
      for _ = 1 to 40 do
        let len = Random.State.int rng 65537 in
        agree (Printf.sprintf "len %d" len)
          (String.init len (fun _ -> Char.chr (Random.State.int rng 256)))
      done)

let test_backends_pair () =
  with_sha_ni (fun () ->
      let rng = Random.State.make [| 23 |] in
      for _ = 1 to 200 do
        let src = Bytes.init 96 (fun _ -> Char.chr (Random.State.int rng 256)) in
        let off = Random.State.int rng 33 in
        let dp = Bytes.create 40 and dn = Bytes.create 40 in
        B.digest_pair_into B.Portable ~src ~src_off:off ~dst:dp ~dst_off:8;
        B.digest_pair_into B.Sha_ni ~src ~src_off:off ~dst:dn ~dst_off:8;
        let expect = Crypto.Sha256.digest_string (Bytes.sub_string src off 64) in
        checks "portable pair" expect (Bytes.sub_string dp 8 32);
        checks "sha-ni pair" expect (Bytes.sub_string dn 8 32)
      done)

let test_backends_vectors () =
  let vectors =
    [ ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      (String.make 1_000_000 'a', "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
      ( String.concat "" (List.init (1_048_576 / 8) (fun _ -> "abcdefgh")),
        "fbe8fc990d4770b55fcedfa0bf160fc168c322cb214e4786c173de06aecbd875" ) ]
  in
  let backends = B.Portable :: (if B.sha_ni_available then [ B.Sha_ni ] else []) in
  with_sha_ni ignore;
  List.iter
    (fun b ->
      List.iter
        (fun (s, hex) ->
          checks
            (Printf.sprintf "%s len %d" (if b = B.Portable then "portable" else "sha-ni")
               (String.length s))
            hex
            (Crypto.Sha256.to_hex (B.digest_string b s)))
        vectors)
    backends

(* -- Hash wrapper --------------------------------------------------------- *)

let test_hash_basic () =
  let a = H.of_string "x" and b = H.of_string "x" and c = H.of_string "y" in
  checkb "equal" true (H.equal a b);
  checkb "not equal" false (H.equal a c);
  checki "size" 32 (String.length (H.raw a));
  checks "roundtrip raw" (H.to_hex a) (H.to_hex (H.of_raw (H.raw a)));
  checki "short" 8 (String.length (H.short a))

let test_hash_combine_order_matters () =
  let a = H.of_string "a" and b = H.of_string "b" in
  checkb "order-sensitive" false (H.equal (H.combine [ a; b ]) (H.combine [ b; a ]))

(* -- Field ---------------------------------------------------------------- *)

let test_field_basic () =
  let a = F.of_int 5 and b = F.of_int 7 in
  checki "add" 12 (F.to_int (F.add a b));
  checki "sub wraps" (F.p - 2) (F.to_int (F.sub a b));
  checki "mul" 35 (F.to_int (F.mul a b));
  checki "neg zero" 0 (F.to_int (F.neg F.zero));
  checki "of_int negative" (F.p - 3) (F.to_int (F.of_int (-3)))

let prop_field_inverse =
  QCheck.Test.make ~name:"x * inv x = 1" ~count:300
    QCheck.(int_range 1 (F.p - 1))
    (fun x ->
      let x = F.of_int x in
      F.equal (F.mul x (F.inv x)) F.one)

let prop_field_pow_matches_mul =
  QCheck.Test.make ~name:"pow x 3 = x*x*x" ~count:200
    QCheck.(int_range 0 (F.p - 1))
    (fun x ->
      let x = F.of_int x in
      F.equal (F.pow x 3) (F.mul x (F.mul x x)))

let prop_field_add_assoc =
  QCheck.Test.make ~name:"add associative/commutative" ~count:200
    QCheck.(triple (int_range 0 (F.p - 1)) (int_range 0 (F.p - 1)) (int_range 0 (F.p - 1)))
    (fun (a, b, c) ->
      let a = F.of_int a and b = F.of_int b and c = F.of_int c in
      F.equal (F.add a (F.add b c)) (F.add (F.add a b) c) && F.equal (F.add a b) (F.add b a))

(* -- Shamir --------------------------------------------------------------- *)

let prop_shamir_roundtrip =
  QCheck.Test.make ~name:"t+1 shares reconstruct the secret" ~count:100
    QCheck.(triple int64 (int_range 0 6) (int_range 1 10))
    (fun (seed, threshold, extra) ->
      let parties = threshold + extra in
      let rng = Sim.Rng.create seed in
      let secret = F.random rng in
      let shares = Crypto.Shamir.deal rng ~secret ~threshold ~parties in
      let subset = Array.to_list (Array.sub shares 0 (threshold + 1)) in
      F.equal (Crypto.Shamir.reconstruct subset) secret)

let prop_shamir_any_subset =
  QCheck.Test.make ~name:"any t+1-subset reconstructs" ~count:100 QCheck.int64 (fun seed ->
      let rng = Sim.Rng.create seed in
      let secret = F.random rng in
      let shares = Crypto.Shamir.deal rng ~secret ~threshold:2 ~parties:7 in
      (* a scattered subset, not just a prefix *)
      let subset = [ shares.(1); shares.(4); shares.(6) ] in
      F.equal (Crypto.Shamir.reconstruct subset) secret)

let test_shamir_insufficient_is_wrong () =
  (* With only t shares, interpolation yields an unrelated value (whp). *)
  let rng = Sim.Rng.create 1234L in
  let wrong = ref 0 in
  for _ = 1 to 20 do
    let secret = F.random rng in
    let shares = Crypto.Shamir.deal rng ~secret ~threshold:3 ~parties:5 in
    let subset = Array.to_list (Array.sub shares 0 3) in
    if not (F.equal (Crypto.Shamir.reconstruct subset) secret) then incr wrong
  done;
  checkb "mostly wrong with t shares" true (!wrong >= 19)

let test_lagrange_sums_to_one () =
  (* Interpolating the constant-1 polynomial: coefficients sum to 1. *)
  let indices = [ 1; 3; 4; 7 ] in
  let sum =
    List.fold_left
      (fun acc i -> F.add acc (Crypto.Shamir.lagrange_coefficient ~at:F.zero ~indices i))
      F.zero indices
  in
  checkb "sum = 1" true (F.equal sum F.one)

(* -- Signature ------------------------------------------------------------ *)

let test_signature_roundtrip () =
  let rng = Sim.Rng.create 2L in
  let pk, sk = Crypto.Signature.keygen rng in
  let s = Crypto.Signature.sign sk "msg" in
  checkb "verifies" true (Crypto.Signature.verify pk s "msg");
  checkb "wrong msg" false (Crypto.Signature.verify pk s "other");
  let pk2, _ = Crypto.Signature.keygen rng in
  checkb "wrong key" false (Crypto.Signature.verify pk2 s "msg")

let prop_signature_binding =
  QCheck.Test.make ~name:"signature binds message" ~count:100
    QCheck.(pair string string)
    (fun (m1, m2) ->
      let rng = Sim.Rng.create 77L in
      let pk, sk = Crypto.Signature.keygen rng in
      let s = Crypto.Signature.sign sk m1 in
      Crypto.Signature.verify pk s m2 = String.equal m1 m2)

(* -- Threshold ------------------------------------------------------------ *)

let setup_4 () =
  let rng = Sim.Rng.create 9L in
  Crypto.Threshold.keygen rng ~threshold:2 ~parties:4

let test_threshold_combine_and_verify () =
  let setup, keys = setup_4 () in
  let msg = "payload" in
  let shares = List.map (fun i -> Crypto.Threshold.sign_share keys.(i) msg) [ 0; 1; 2 ] in
  (match Crypto.Threshold.combine setup msg shares with
   | Some agg ->
     checkb "aggregate verifies" true (Crypto.Threshold.verify setup agg msg);
     checkb "wrong msg" false (Crypto.Threshold.verify setup agg "other")
   | None -> Alcotest.fail "combine failed");
  List.iter
    (fun s -> checkb "share verifies" true (Crypto.Threshold.verify_share setup s msg))
    shares

let test_threshold_insufficient () =
  let setup, keys = setup_4 () in
  let msg = "payload" in
  let shares = List.map (fun i -> Crypto.Threshold.sign_share keys.(i) msg) [ 0; 1 ] in
  checkb "2 shares insufficient for t=2" true (Crypto.Threshold.combine setup msg shares = None)

let test_threshold_duplicates_dont_count () =
  let setup, keys = setup_4 () in
  let msg = "payload" in
  let s0 = Crypto.Threshold.sign_share keys.(0) msg in
  let s1 = Crypto.Threshold.sign_share keys.(1) msg in
  checkb "duplicate member shares rejected" true
    (Crypto.Threshold.combine setup msg [ s0; s0; s1 ] = None)

let test_threshold_invalid_filtered () =
  let setup, keys = setup_4 () in
  let msg = "payload" in
  let bad = Crypto.Threshold.sign_share keys.(3) "different message" in
  checkb "bad share does not verify" false (Crypto.Threshold.verify_share setup bad msg);
  let shares = [ Crypto.Threshold.sign_share keys.(0) msg; Crypto.Threshold.sign_share keys.(1) msg; bad ] in
  checkb "combine with an invalid share fails below quorum" true
    (Crypto.Threshold.combine setup msg shares = None)

let test_threshold_forge_rejected () =
  let setup, _ = setup_4 () in
  let forged = Crypto.Threshold.forge_attempt setup "target" in
  checkb "forgery rejected" false (Crypto.Threshold.verify setup forged "target")

let prop_threshold_any_quorum =
  QCheck.Test.make ~name:"any 2f+1 subset aggregates and verifies" ~count:60
    QCheck.(pair int64 (int_range 1 4))
    (fun (seed, f) ->
      let n = (3 * f) + 1 in
      let rng = Sim.Rng.create seed in
      let setup, keys = Crypto.Threshold.keygen rng ~threshold:(2 * f) ~parties:n in
      let msg = Printf.sprintf "m%Ld" seed in
      let ids = Sim.Rng.sample_without_replacement rng ((2 * f) + 1) n in
      let shares = List.map (fun i -> Crypto.Threshold.sign_share keys.(i) msg) ids in
      match Crypto.Threshold.combine setup msg shares with
      | Some agg -> Crypto.Threshold.verify setup agg msg
      | None -> false)

(* -- Merkle ---------------------------------------------------------------- *)

let leaves n = List.init n (fun i -> H.of_string (Printf.sprintf "leaf%d" i))

let test_merkle_root_determinism () =
  checkb "same leaves same root" true
    (H.equal (Crypto.Merkle.root (leaves 5)) (Crypto.Merkle.root (leaves 5)));
  checkb "different leaves different root" false
    (H.equal (Crypto.Merkle.root (leaves 5)) (Crypto.Merkle.root (leaves 6)))

let test_merkle_singleton () =
  let l = H.of_string "only" in
  checkb "singleton root is the leaf" true (H.equal (Crypto.Merkle.root [ l ]) l)

let prop_merkle_proofs =
  QCheck.Test.make ~name:"inclusion proofs verify for every index" ~count:50
    QCheck.(int_range 1 33)
    (fun n ->
      let ls = leaves n in
      let root = Crypto.Merkle.root ls in
      List.for_all
        (fun i ->
          match Crypto.Merkle.prove ls i with
          | Some proof -> Crypto.Merkle.verify_proof ~root ~leaf:(List.nth ls i) proof
          | None -> false)
        (List.init n Fun.id))

let prop_merkle_root_with =
  QCheck.Test.make ~name:"root_with = root of the leaf digests" ~count:50
    QCheck.(int_range 0 33)
    (fun n ->
      let ls = leaves n in
      let leaf h dst off = Bytes.blit_string (H.raw h) 0 dst off H.size_bytes in
      H.equal (Crypto.Merkle.root_with ~leaf ls) (Crypto.Merkle.root ls))

let test_merkle_proof_wrong_leaf () =
  let ls = leaves 8 in
  let root = Crypto.Merkle.root ls in
  (match Crypto.Merkle.prove ls 3 with
   | Some proof ->
     checkb "wrong leaf rejected" false
       (Crypto.Merkle.verify_proof ~root ~leaf:(H.of_string "intruder") proof)
   | None -> Alcotest.fail "no proof");
  checkb "out of range" true (Crypto.Merkle.prove ls 8 = None);
  checkb "negative" true (Crypto.Merkle.prove ls (-1) = None)

(* -- Cost model ------------------------------------------------------------ *)

let test_cost_model () =
  let open Crypto.Cost_model in
  checkb "paper BLS gap" true (Int64.compare paper.tvrf_aggregate paper.verify > 0);
  Alcotest.(check int64) "hash scales" (Sim.Sim_time.us 6) (hash_cost paper ~bytes_len:2048);
  Alcotest.(check int64) "free is free" 0L (combine_cost free ~shares:100);
  checkb "combine grows" true
    (Int64.compare (combine_cost paper ~shares:100) (combine_cost paper ~shares:10) > 0)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "crypto"
    [ ( "sha256",
        [ Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a's" `Slow test_sha256_million_a;
          Alcotest.test_case "1MiB pattern" `Slow test_sha256_1mib_pattern;
          Alcotest.test_case "hmac RFC 4231" `Quick test_hmac_rfc4231;
          Alcotest.test_case "backends agree 0..300" `Quick test_backends_every_short_length;
          Alcotest.test_case "backends agree random lengths" `Quick test_backends_random_lengths;
          Alcotest.test_case "backends agree on pairs" `Quick test_backends_pair;
          Alcotest.test_case "backends FIPS/1M/1MiB vectors" `Slow test_backends_vectors ]
        @ qsuite [ prop_hmac_verify; prop_digest_bytes_into ] );
      ( "hash",
        [ Alcotest.test_case "basics" `Quick test_hash_basic;
          Alcotest.test_case "combine order" `Quick test_hash_combine_order_matters ] );
      ( "field",
        [ Alcotest.test_case "basics" `Quick test_field_basic ]
        @ qsuite [ prop_field_inverse; prop_field_pow_matches_mul; prop_field_add_assoc ] );
      ( "shamir",
        [ Alcotest.test_case "insufficient shares wrong" `Quick test_shamir_insufficient_is_wrong;
          Alcotest.test_case "lagrange sums to one" `Quick test_lagrange_sums_to_one ]
        @ qsuite [ prop_shamir_roundtrip; prop_shamir_any_subset ] );
      ( "signature",
        [ Alcotest.test_case "roundtrip" `Quick test_signature_roundtrip ]
        @ qsuite [ prop_signature_binding ] );
      ( "threshold",
        [ Alcotest.test_case "combine & verify" `Quick test_threshold_combine_and_verify;
          Alcotest.test_case "insufficient" `Quick test_threshold_insufficient;
          Alcotest.test_case "duplicates" `Quick test_threshold_duplicates_dont_count;
          Alcotest.test_case "invalid filtered" `Quick test_threshold_invalid_filtered;
          Alcotest.test_case "forgery rejected" `Quick test_threshold_forge_rejected ]
        @ qsuite [ prop_threshold_any_quorum ] );
      ( "merkle",
        [ Alcotest.test_case "determinism" `Quick test_merkle_root_determinism;
          Alcotest.test_case "singleton" `Quick test_merkle_singleton;
          Alcotest.test_case "wrong leaf" `Quick test_merkle_proof_wrong_leaf ]
        @ qsuite [ prop_merkle_proofs; prop_merkle_root_with ] );
      ("cost model", [ Alcotest.test_case "profiles" `Quick test_cost_model ]) ]

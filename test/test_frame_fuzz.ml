(* Byte-level fuzz of Transport.Frame.reader.

   The framing layer promises totality: any byte stream yields [Ok] or a
   typed [error], never an exception and never a silent skip. We take the
   frozen golden vectors for the view-change-path messages (Timeout,
   View_change, New_view — the frames a Byzantine peer is most motivated
   to corrupt), wrap them in version-1 headers, and hammer the reader
   with single-bit flips, random multi-byte mutations, truncations and
   byte-at-a-time delivery. *)

let checkb = Alcotest.(check bool)

module Frame = Transport.Frame

(* Golden payload bytes, frozen by test_codec.ml. *)
let golden_timeout_hex =
  "080300000002000000200000000381e97c53104c69e5ecd8ede16ae8f42337d6ba911a71ecd9a090902cdecadf"

let golden_view_change_hex =
  "0904000000010000000110000000200000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4ee0f4825d0100000003000000030000001100000000010000002000000072dfcfb0c470ac255cde83fb8fe38de8a128188e03ea5ba5b2a93adbea1062fae0f4825d20000000be99d4c7b1e30407624e06d23e6bf19ae9996ba5cd2f9146925683261362f77a"

let golden_new_view_hex =
  "0a04000000000000000100000004000000010000000110000000200000004ba69735ca53765ed6a709edb56c6ea236b7193a3b29a6b390c346f0f4340e4ee0f4825d0100000003000000030000001100000000010000002000000072dfcfb0c470ac255cde83fb8fe38de8a128188e03ea5ba5b2a93adbea1062fae0f4825d20000000be99d4c7b1e30407624e06d23e6bf19ae9996ba5cd2f9146925683261362f77a2000000005965dfda4eb71ccab0fe3dc471c6db43cf923fa28172f587a9c79949ad96914"

let of_hex s =
  let n = String.length s / 2 in
  String.init n (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let u16le v = String.init 2 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))
let u32le v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

let frame_of payload =
  Frame.magic ^ u16le Frame.version ^ "\x01" ^ u32le (String.length payload) ^ payload

(* A datablock frame built live from deterministic keys: the bulk-plane
   frame whose batch list is attacker-controlled (its decoder once sat
   one [assert false] away from a remote panic on an empty list). *)
let datablock_batches = 3
let batch_bytes = 21 (* id u32 + count u32 + size_each u32 + born i64 + resend u8 *)

let datablock_frame =
  let rng = Sim.Rng.create 2026L in
  let _pk, sk = Crypto.Signature.keygen rng in
  let batch i =
    Workload.Request.make ~id:(100 + i) ~count:4 ~size_each:64
      ~born:Sim.Sim_time.zero ()
  in
  Frame.encode_shared
    (Core.Msg.Datablock_msg
       (Core.Datablock.create ~sk ~creator:0 ~counter:1 ~now:Sim.Sim_time.zero
          (List.init datablock_batches batch)))

let vectors =
  [ ("timeout", frame_of (of_hex golden_timeout_hex));
    ("view-change", frame_of (of_hex golden_view_change_hex));
    ("new-view", frame_of (of_hex golden_new_view_hex));
    ("datablock", datablock_frame) ]

(* Feed a whole buffer into a fresh reader. Any exception is a bug — that
   is the property under test, so surface it as a test failure with the
   offending input identified. *)
let feed_fresh ?(label = "") buf =
  let r = Frame.reader () in
  let frames = ref 0 in
  match Frame.feed r buf ~off:0 ~len:(Bytes.length buf) (fun _ -> incr frames) with
  | res -> (r, res, !frames)
  | exception ex ->
    Alcotest.failf "feed raised %s on %s input (%d bytes)" (Printexc.to_string ex)
      label (Bytes.length buf)

let test_golden_frames_decode () =
  List.iter
    (fun (name, frame) ->
      let _, res, frames = feed_fresh ~label:name (Bytes.of_string frame) in
      checkb (name ^ " ok") true (res = Ok ());
      Alcotest.(check int) (name ^ " one frame") 1 frames)
    vectors

let test_single_bit_flips () =
  (* Every bit of every golden frame, flipped one at a time. The reader
     must stay total, and a poisoned reader must repeat its error. *)
  List.iter
    (fun (name, frame) ->
      for byte = 0 to String.length frame - 1 do
        for bit = 0 to 7 do
          let buf = Bytes.of_string frame in
          Bytes.set buf byte (Char.chr (Char.code frame.[byte] lxor (1 lsl bit)));
          let r, res, _ = feed_fresh ~label:name buf in
          match res with
          | Ok () -> ()
          | Error e ->
            (* Poisoning: the same typed error again, still no exception. *)
            (match Frame.feed r (Bytes.make 1 '\x00') ~off:0 ~len:1 (fun _ -> ()) with
             | Error e' when e' = e -> ()
             | Error _ -> Alcotest.failf "%s: poisoned reader changed its error" name
             | Ok () -> Alcotest.failf "%s: poisoned reader accepted more bytes" name
             | exception ex ->
               Alcotest.failf "%s: poisoned feed raised %s" name (Printexc.to_string ex))
        done
      done)
    vectors

let test_random_mutations () =
  (* Deterministic multi-byte mutations: 400 rounds per vector, 1-8
     mutated bytes each, from a fixed seed so failures replay. *)
  let rng = Sim.Rng.create 0xF00DL in
  List.iter
    (fun (name, frame) ->
      for _round = 1 to 400 do
        let buf = Bytes.of_string frame in
        let hits = 1 + Sim.Rng.int rng 8 in
        for _ = 1 to hits do
          let pos = Sim.Rng.int rng (Bytes.length buf) in
          Bytes.set buf pos (Char.chr (Sim.Rng.int rng 256))
        done;
        ignore (feed_fresh ~label:(name ^ " mutated") buf)
      done)
    vectors

let test_truncations () =
  (* Every prefix: feeding must stay total, and check_eof must report
     Short_read exactly when the stream stops inside a frame. *)
  List.iter
    (fun (name, frame) ->
      for len = 0 to String.length frame - 1 do
        let buf = Bytes.of_string (String.sub frame 0 len) in
        let r, res, frames = feed_fresh ~label:(name ^ " truncated") buf in
        checkb (name ^ " truncated feed ok") true (res = Ok ());
        Alcotest.(check int) (name ^ " no partial frame surfaced") 0 frames;
        match Frame.check_eof r with
        | Ok () -> checkb (name ^ " eof ok only at boundary") true (len = 0)
        | Error Frame.Short_read -> checkb (name ^ " short read mid-frame") true (len > 0)
        | Error e -> Alcotest.failf "%s: unexpected eof error %a" name Frame.pp_error e
        | exception ex ->
          Alcotest.failf "%s: check_eof raised %s" name (Printexc.to_string ex)
      done)
    vectors

let test_byte_at_a_time () =
  (* Dribbling a mutated frame one byte at a time must reach the same
     verdict as feeding it whole: framing state can't depend on slice
     boundaries. *)
  let rng = Sim.Rng.create 0xBEEFL in
  List.iter
    (fun (name, frame) ->
      for _round = 1 to 50 do
        let buf = Bytes.of_string frame in
        let pos = Sim.Rng.int rng (Bytes.length buf) in
        Bytes.set buf pos (Char.chr (Sim.Rng.int rng 256));
        let _, whole, whole_frames = feed_fresh ~label:name buf in
        let r = Frame.reader () in
        let frames = ref 0 in
        let res = ref (Ok ()) in
        (try
           for i = 0 to Bytes.length buf - 1 do
             match !res with
             | Error _ -> ()
             | Ok () -> res := Frame.feed r buf ~off:i ~len:1 (fun _ -> incr frames)
           done
         with ex ->
           Alcotest.failf "%s: dribble feed raised %s" name (Printexc.to_string ex));
        checkb (name ^ " dribble verdict matches") true (!res = whole);
        Alcotest.(check int) (name ^ " dribble frame count matches") whole_frames !frames
      done)
    vectors

let test_header_errors_are_typed () =
  let feed_str s =
    let _, res, _ = feed_fresh ~label:"header" (Bytes.of_string s) in
    res
  in
  let payload = of_hex golden_timeout_hex in
  checkb "bad magic" true
    (feed_str ("XPRD" ^ u16le Frame.version ^ "\x01" ^ u32le 4 ^ "aaaa")
     = Error Frame.Bad_magic);
  checkb "bad version" true
    (feed_str (Frame.magic ^ u16le 9 ^ "\x01" ^ u32le 4 ^ "aaaa")
     = Error (Frame.Bad_version 9));
  checkb "oversized" true
    (match feed_str (Frame.magic ^ u16le Frame.version ^ "\x01" ^ u32le 0x7fffffff) with
     | Error (Frame.Oversized _) -> true
     | _ -> false);
  checkb "garbage payload is Decode_failed" true
    (feed_str (frame_of (String.map (fun _ -> '\xff') payload))
     = Error Frame.Decode_failed)

(* Targeted malformations of the datablock's batch list — the exact
   shapes the decoder guards turn into typed errors instead of panics. *)
let test_datablock_batch_list_malformed () =
  let frame = datablock_frame in
  (* The list's u32 count immediately precedes its fixed-width items at
     the end of the frame. *)
  let count_off = String.length frame - (datablock_batches * batch_bytes) - 4 in
  let _, res, frames = feed_fresh ~label:"datablock" (Bytes.of_string frame) in
  checkb "unpatched datablock decodes" true (res = Ok () && frames = 1);
  let with_count v =
    let buf = Bytes.of_string frame in
    Bytes.blit_string (u32le v) 0 buf count_off 4;
    buf
  in
  let _, res, _ = feed_fresh ~label:"datablock empty list" (with_count 0) in
  checkb "empty batch list is a typed error" true
    (res = Error Frame.Decode_failed);
  let _, res, _ = feed_fresh ~label:"datablock huge count" (with_count 0xFFFFFF) in
  checkb "absurd batch count is a typed error" true
    (res = Error Frame.Decode_failed);
  (* A zero-request batch inside an otherwise well-formed list. *)
  let buf = Bytes.of_string frame in
  Bytes.blit_string (u32le 0) 0 buf (count_off + 4 + 4) 4;
  let _, res, _ = feed_fresh ~label:"datablock zero-count batch" buf in
  checkb "zero-request batch is a typed error" true
    (res = Error Frame.Decode_failed)

let () =
  Alcotest.run "frame-fuzz"
    [ ( "fuzz",
        [ Alcotest.test_case "golden frames decode" `Quick test_golden_frames_decode;
          Alcotest.test_case "single-bit flips" `Quick test_single_bit_flips;
          Alcotest.test_case "random mutations" `Quick test_random_mutations;
          Alcotest.test_case "truncations" `Quick test_truncations;
          Alcotest.test_case "byte-at-a-time" `Quick test_byte_at_a_time;
          Alcotest.test_case "typed header errors" `Quick test_header_errors_are_typed;
          Alcotest.test_case "malformed datablock batch lists" `Quick
            test_datablock_batch_list_malformed ] )
    ]

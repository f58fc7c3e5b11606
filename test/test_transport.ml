(* Transport stack tests: the frame layer bit-for-bit, the event loop's
   timer and fd semantics on both pollers, redial backoff, and n = 4
   clusters over real loopback TCP — including
   the acceptance scenarios: >= 1000 requests confirmed with identical
   state hashes, and a fail-stopped non-leader that the cluster survives
   and that reconnects after revival. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let to_hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* -- frame golden bytes -------------------------------------------------- *)

let test_frame_hello_golden () =
  (* magic "LPRD", version 1 (u16 LE), kind 0, len 4, node id 3 (u32 LE) *)
  checks "hello frame" "4c5052440100000400000003000000" (to_hex (Transport.Frame.encode_hello 3))

let test_frame_msg_golden () =
  (* Header (kind 1, len 37) + the codec's frozen Fetch bytes: the frame
     layer adds exactly 11 bytes and never rewrites the payload. *)
  checks "msg frame"
    ("4c50524401000125000000"
    ^ "0b20000000ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
    (to_hex (Transport.Frame.encode_shared (Core.Msg.Fetch { hash = Crypto.Hash.of_string "abc" })))

(* -- frame incremental decoding ----------------------------------------- *)

let feed_string r s k =
  Transport.Frame.feed r (Bytes.of_string s) ~off:0 ~len:(String.length s) k

let collect_frames feeds =
  let r = Transport.Frame.reader () in
  let acc = ref [] in
  let res =
    List.fold_left
      (fun last s -> match last with Error _ -> last | Ok () -> feed_string r s (fun f -> acc := f :: !acc))
      (Ok ()) feeds
  in
  (res, List.rev !acc, r)

let test_frame_byte_at_a_time () =
  let wire =
    Transport.Frame.encode_hello 2
    ^ Transport.Frame.encode_shared (Core.Msg.Fetch { hash = Crypto.Hash.of_string "x" })
  in
  let bytes = List.init (String.length wire) (fun i -> String.make 1 wire.[i]) in
  let res, frames, r = collect_frames bytes in
  checkb "no error" true (res = Ok ());
  checki "two frames" 2 (List.length frames);
  (match frames with
  | [ Transport.Frame.Hello 2; Transport.Frame.Msg (Core.Msg.Fetch _) ] -> ()
  | _ -> Alcotest.fail "wrong frames or order");
  checkb "clean eof" true (Transport.Frame.check_eof r = Ok ())

let test_frame_coalesced () =
  let wire =
    Transport.Frame.encode_hello 0
    ^ Transport.Frame.encode_hello 1
    ^ Transport.Frame.encode_hello 2
  in
  let res, frames, _ = collect_frames [ wire ] in
  checkb "no error" true (res = Ok ());
  checkb "three hellos in order" true
    (frames = [ Transport.Frame.Hello 0; Transport.Frame.Hello 1; Transport.Frame.Hello 2 ])

let test_frame_short_read () =
  let wire = Transport.Frame.encode_hello 7 in
  let partial = String.sub wire 0 (String.length wire - 1) in
  let res, frames, r = collect_frames [ partial ] in
  checkb "partial frame is not an error" true (res = Ok ());
  checki "nothing parsed" 0 (List.length frames);
  checkb "eof mid-frame is" true
    (Transport.Frame.check_eof r = Error Transport.Frame.Short_read)

let header ~version ~kind ~len =
  let b = Buffer.create 11 in
  Buffer.add_string b Transport.Frame.magic;
  Buffer.add_uint16_le b version;
  Buffer.add_uint8 b kind;
  Buffer.add_int32_le b (Int32.of_int len);
  Buffer.contents b

let test_frame_errors () =
  (* Bad magic. *)
  let res, _, r = collect_frames [ "XXXXXXXXXXXXXXXX" ] in
  checkb "bad magic" true (res = Error Transport.Frame.Bad_magic);
  (* ... poisons the reader: the same error again, parsing never resumes. *)
  checkb "poisoned" true
    (feed_string r (Transport.Frame.encode_hello 1) (fun _ -> ())
    = Error Transport.Frame.Bad_magic);
  (* Wrong protocol version. *)
  let res, _, _ = collect_frames [ header ~version:2 ~kind:0 ~len:4 ^ "aaaa" ] in
  checkb "bad version" true (res = Error (Transport.Frame.Bad_version 2));
  (* Declared length beyond the cap is rejected before buffering. *)
  let r = Transport.Frame.reader ~max_frame:16 () in
  checkb "oversized" true
    (feed_string r (header ~version:1 ~kind:1 ~len:1000) (fun _ -> ())
    = Error (Transport.Frame.Oversized 1000));
  (* Well-framed payload the codec rejects. *)
  let res, _, _ = collect_frames [ header ~version:1 ~kind:1 ~len:4 ^ "\xff\xff\xff\xff" ] in
  checkb "undecodable msg" true (res = Error Transport.Frame.Decode_failed);
  (* A hello payload must be exactly 4 bytes. *)
  let res, _, _ = collect_frames [ header ~version:1 ~kind:0 ~len:5 ^ "aaaaa" ] in
  checkb "malformed hello" true (res = Error Transport.Frame.Decode_failed);
  (* Unknown frame kind. *)
  let res, _, _ = collect_frames [ header ~version:1 ~kind:9 ~len:0 ] in
  checkb "unknown kind" true (res = Error Transport.Frame.Decode_failed)

(* -- event loop ---------------------------------------------------------- *)

let test_loop_timer_fifo () =
  let loop = Transport.Loop.create () in
  let order = ref [] in
  let note x = order := x :: !order in
  ignore (Transport.Loop.schedule loop ~delay:0L (fun () -> note 1) : Transport.Loop.handle);
  ignore (Transport.Loop.schedule loop ~delay:0L (fun () -> note 2) : Transport.Loop.handle);
  ignore (Transport.Loop.schedule loop ~delay:0L (fun () -> note 3) : Transport.Loop.handle);
  ignore
    (Transport.Loop.schedule loop ~delay:(Sim.Sim_time.ms 2) (fun () -> note 4)
      : Transport.Loop.handle);
  Transport.Loop.run_for loop ~span:(Sim.Sim_time.ms 20);
  checkb "same-instant timers fire in schedule order, later timers after" true
    (List.rev !order = [ 1; 2; 3; 4 ])

let test_loop_cancel () =
  let loop = Transport.Loop.create () in
  let fired = ref [] in
  let h1 = Transport.Loop.schedule loop ~delay:(Sim.Sim_time.ms 1) (fun () -> fired := 1 :: !fired) in
  let _h2 =
    Transport.Loop.schedule loop ~delay:(Sim.Sim_time.ms 1) (fun () -> fired := 2 :: !fired)
  in
  Transport.Loop.cancel loop h1;
  checki "cancelled timer leaves the pending count" 1 (Transport.Loop.pending_timers loop);
  Transport.Loop.run_for loop ~span:(Sim.Sim_time.ms 20);
  checkb "only the live timer fired" true (!fired = [ 2 ]);
  checki "nothing pending" 0 (Transport.Loop.pending_timers loop);
  (* Cancelling after the fact is a no-op (at worst a parked entry). *)
  Transport.Loop.cancel loop h1;
  checki "still nothing pending" 0 (Transport.Loop.pending_timers loop)

let test_loop_schedule_from_callback () =
  let loop = Transport.Loop.create () in
  let hits = ref 0 in
  ignore
    (Transport.Loop.schedule loop ~delay:0L (fun () ->
         incr hits;
         ignore (Transport.Loop.schedule loop ~delay:0L (fun () -> incr hits)
                  : Transport.Loop.handle))
      : Transport.Loop.handle);
  Transport.Loop.run_for loop ~span:(Sim.Sim_time.ms 20);
  checki "chained zero-delay timers both ran" 2 !hits;
  checkb "clock is monotone" true (Transport.Loop.now_ns loop >= 0)

(* -- event loop: file descriptors, on both pollers ------------------------ *)

(* Each fd case runs on the platform poller (epoll on Linux) and on the
   portable select(2) one. *)
let pollers =
  [ ("epoll", true, Transport.Loop.create); ("select", false, Transport.Loop.create_select) ]

let with_loop ~epoll mk f () =
  let loop = mk () in
  if epoll && not (Transport.Loop.uses_epoll loop) then
    print_endline "skipped: no epoll on this platform"
  else f loop

(* Runs exactly [n] rounds. *)
let rounds loop n =
  let left = ref n in
  Transport.Loop.run_while loop (fun () ->
      decr left;
      !left >= 0)

let pair () = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0

let close_pair loop (a, b) =
  Transport.Loop.unwatch loop a;
  Unix.close a;
  Unix.close b

let test_loop_fd_level_triggered loop =
  let ((a, b) as p) = pair () in
  ignore (Unix.write_substring b "xyz" 0 3 : int);
  let fired = ref 0 in
  let one = Bytes.create 1 in
  Transport.Loop.watch_read loop a (fun () ->
      incr fired;
      ignore (Unix.read a one 0 1 : int));
  rounds loop 5;
  checki "one read callback per round until the 3 bytes are drained" 3 !fired;
  close_pair loop p

let test_loop_fd_unwatch_in_callback loop =
  let a1, b1 = pair () and a2, b2 = pair () in
  ignore (Unix.write_substring b1 "x" 0 1 : int);
  ignore (Unix.write_substring b2 "x" 0 1 : int);
  let fired = ref [] and closed = ref None in
  (* Both fds are ready in the same round; whichever runs first
     unwatches and closes the other. *)
  let cb mine other () =
    fired := mine :: !fired;
    if !closed = None then begin
      Transport.Loop.unwatch loop other;
      Unix.close other;
      closed := Some other
    end
  in
  Transport.Loop.watch_read loop a1 (cb a1 a2);
  Transport.Loop.watch_read loop a2 (cb a2 a1);
  rounds loop 1;
  checki "only the callback that ran first was dispatched" 1 (List.length !fired);
  let survivor = List.hd !fired in
  Transport.Loop.unwatch loop survivor;
  Unix.close survivor;
  Unix.close b1;
  Unix.close b2

let test_loop_fd_write_readiness loop =
  let ((a, b) as p) = pair () in
  let writable = ref 0 and readable = ref 0 in
  Transport.Loop.watch_read loop a (fun () ->
      incr readable;
      ignore (Unix.read a (Bytes.create 8) 0 8 : int));
  Transport.Loop.watch_write loop a (fun () ->
      incr writable;
      if !writable = 2 then Transport.Loop.unwatch_write loop a);
  rounds loop 2;
  checki "an idle socket is writable every round" 2 !writable;
  rounds loop 2;
  checki "no write callback after unwatch_write" 2 !writable;
  checki "nothing to read yet" 0 !readable;
  ignore (Unix.write_substring b "x" 0 1 : int);
  rounds loop 1;
  checki "the read side stays watched" 1 !readable;
  close_pair loop p

(* The contract round-batched proposals rest on: a zero-delay timer set
   by the first of two ready fds runs after the second is dispatched, in
   the same round. *)
let test_loop_zero_delay_after_dispatch loop =
  let a1, b1 = pair () and a2, b2 = pair () in
  ignore (Unix.write_substring b1 "x" 0 1 : int);
  ignore (Unix.write_substring b2 "x" 0 1 : int);
  let round = ref 0 and events = ref [] in
  let note what = events := (what, !round) :: !events in
  let cb fd () =
    ignore (Unix.read fd (Bytes.create 1) 0 1 : int);
    note "read";
    if List.length !events = 1 then
      ignore
        (Transport.Loop.schedule loop ~delay:0L (fun () -> note "task")
          : Transport.Loop.handle)
  in
  Transport.Loop.watch_read loop a1 (cb a1);
  Transport.Loop.watch_read loop a2 (cb a2);
  (* [run_while] checks its predicate once per round *)
  Transport.Loop.run_while loop (fun () ->
      incr round;
      !round <= 3);
  (match List.rev !events with
   | [ ("read", r1); ("read", r2); ("task", r3) ] ->
     checkb "both reads and the task in one round" true (r1 = r2 && r2 = r3)
   | evs ->
     Alcotest.failf "want read, read, task; got %s"
       (String.concat ", " (List.map (fun (w, r) -> Printf.sprintf "%s@%d" w r) evs)));
  close_pair loop (a1, b1);
  close_pair loop (a2, b2)

(* /proc/self/limits' soft "Max open files"; [None] when unreadable. *)
let soft_fd_limit () =
  match open_in "/proc/self/limits" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line when String.starts_with ~prefix:"Max open files" line -> (
        match List.filter (( <> ) "") (String.split_on_char ' ' line) with
        | _ :: _ :: _ :: soft :: _ -> int_of_string_opt soft
        | _ -> None)
      | _ -> scan ()
    in
    let r = scan () in
    close_in ic;
    r

let test_loop_fd_above_1024 () =
  let loop = Transport.Loop.create () in
  match soft_fd_limit () with
  | _ when not (Transport.Loop.uses_epoll loop) ->
    print_endline "skipped: no epoll on this platform"
  | Some lim when lim >= 2048 ->
    let a, b = pair () in
    (* On Unix a file_descr is the fd number. *)
    let high : Unix.file_descr = Obj.magic 1500 in
    Unix.dup2 a high;
    Unix.close a;
    ignore (Unix.write_substring b "x" 0 1 : int);
    let fired = ref 0 in
    Transport.Loop.watch_read loop high (fun () ->
        incr fired;
        ignore (Unix.read high (Bytes.create 1) 0 1 : int));
    rounds loop 1;
    checki "fd 1500 dispatched" 1 !fired;
    close_pair loop (high, b)
  | lim ->
    Printf.printf "skipped: soft fd limit %s is below 2048\n"
      (match lim with Some l -> string_of_int l | None -> "unknown")

let loop_fd_cases =
  List.concat_map
    (fun (name, epoll, mk) ->
      [ Alcotest.test_case ("readable fires until drained, " ^ name) `Quick
          (with_loop ~epoll mk test_loop_fd_level_triggered);
        Alcotest.test_case ("unwatch in callback stops dispatch, " ^ name) `Quick
          (with_loop ~epoll mk test_loop_fd_unwatch_in_callback);
        Alcotest.test_case ("write readiness and unwatch_write, " ^ name) `Quick
          (with_loop ~epoll mk test_loop_fd_write_readiness);
        Alcotest.test_case ("zero-delay timer ends round, " ^ name) `Quick
          (with_loop ~epoll mk test_loop_zero_delay_after_dispatch) ])
    pollers
  @ [ Alcotest.test_case "fd above 1024, epoll" `Quick test_loop_fd_above_1024 ]

(* -- zero-copy data plane ------------------------------------------------ *)

let test_pool_reuse_poison_double_free () =
  let p = Transport.Pool.create ~debug:true () in
  let b = Transport.Pool.acquire p 5000 in
  checki "request rounds up to its class" 8192 (Bytes.length b);
  Bytes.fill b 0 (Bytes.length b) 'x';
  Transport.Pool.release p b;
  checkb "released buffer is poisoned" true
    (Bytes.get b 0 = Transport.Pool.poison_byte
    && Bytes.get b 8191 = Transport.Pool.poison_byte);
  let b' = Transport.Pool.acquire p 8192 in
  checkb "acquire recycles the released buffer" true (b' == b);
  checki "hit counted" 1 (Transport.Pool.stats p).Transport.Pool.hits;
  Transport.Pool.release p b';
  (match Transport.Pool.release p b' with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double release undetected");
  (* Off-class lengths are never pooled (they would poison the classes). *)
  Transport.Pool.release p (Bytes.create 100);
  checki "off-class release dropped" 1 (Transport.Pool.stats p).Transport.Pool.dropped;
  (* Oversized requests degrade to exact plain allocations. *)
  let big = Transport.Pool.acquire p (Transport.Pool.max_class + 1) in
  checki "oversized is exact-size" (Transport.Pool.max_class + 1) (Bytes.length big);
  let before = (Transport.Pool.stats p).Transport.Pool.dropped in
  Transport.Pool.release p big;
  checki "oversized release dropped too" (before + 1)
    (Transport.Pool.stats p).Transport.Pool.dropped

(* A sender [Conn] dialing plain listening sockets the test reads raw
   bytes from: the ground truth for what actually hit the wire. *)
let raw_listener () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 8;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> (fd, port)
  | Unix.ADDR_UNIX _ -> assert false

let read_exactly fd n =
  let b = Bytes.create n in
  let got = ref 0 in
  while !got < n do
    let k = Unix.read fd b !got (n - !got) in
    if k = 0 then Alcotest.fail "peer stream ended early";
    got := !got + k
  done;
  Bytes.to_string b

let spin loop pred =
  let deadline = Transport.Loop.now_ns loop + 10_000_000_000 in
  Transport.Loop.run_while loop (fun () ->
      Transport.Loop.now_ns loop < deadline && not (pred ()));
  pred ()

(* Multicast to [k] raw peers; return per-peer wire bytes. [clamp] caps
   bytes per write(2) to force partial-write paths. *)
let multicast_wire ?clamp msgs =
  let k = 3 in
  let loop = Transport.Loop.create () in
  let conn = Transport.Conn.create ~loop ~id:0 ~on_msg:(fun ~src:_ _ -> ()) () in
  (match clamp with Some c -> Transport.Conn.set_max_write conn c | None -> ());
  let listeners = Array.init k (fun _ -> raw_listener ()) in
  Array.iteri
    (fun i (_, port) ->
      Transport.Conn.set_peer_addr conn (i + 1)
        (Unix.ADDR_INET (Unix.inet_addr_loopback, port)))
    listeners;
  let e0 = Transport.Frame.encode_count () in
  List.iter (fun m -> Transport.Conn.multicast conn ~n:(k + 1) m) msgs;
  checki "one encode per multicast, regardless of fan-out"
    (List.length msgs)
    (Transport.Frame.encode_count () - e0);
  (* [frames_sent] counts queued frames only — the hello goes out as the
     connection prefix, not through the queue. *)
  let done_ = spin loop (fun () ->
      (Transport.Conn.stats conn).Transport.Conn.frames_sent = List.length msgs * k)
  in
  checkb "all frames flushed" true done_;
  checki "nothing dropped" 0 (Transport.Conn.dropped conn);
  let expected_bytes =
    Transport.Frame.encode_hello 0
    ^ String.concat "" (List.map Transport.Frame.encode_shared msgs)
  in
  let wires =
    Array.map
      (fun (lfd, _) ->
        let fd, _ = Unix.accept lfd in
        let s = read_exactly fd (String.length expected_bytes) in
        Unix.close fd;
        Unix.close lfd;
        s)
      listeners
  in
  Transport.Conn.close conn;
  (expected_bytes, wires, Transport.Conn.stats conn)

let some_msgs () =
  List.map
    (fun s -> Core.Msg.Fetch { hash = Crypto.Hash.of_string s })
    [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]

let test_multicast_byte_equivalence () =
  let expected, wires, _ = multicast_wire (some_msgs ()) in
  Array.iteri
    (fun i wire -> checks (Printf.sprintf "peer %d wire bytes" (i + 1)) expected wire)
    wires

let test_multicast_coalesces_writes () =
  (* All frames are queued while the dial is still in progress, so the
     first flush finds the whole backlog: the hello plus one gather write
     should drain it — syscalls/frame far below 1. *)
  let msgs = some_msgs () in
  let _, _, stats = multicast_wire msgs in
  let k = 3 in
  checki "every frame sent" (List.length msgs * k) stats.Transport.Conn.frames_sent;
  checkb
    (Printf.sprintf "coalesced: %d write syscalls for %d frames"
       stats.Transport.Conn.write_syscalls stats.Transport.Conn.frames_sent)
    true
    (stats.Transport.Conn.write_syscalls <= 3 * k)

let test_multicast_one_byte_torture () =
  (* Clamp every write(2) to a single byte: shared frames cross the wire
     one byte at a time, head offsets walking through frame boundaries on
     every peer independently. The wire must still be byte-identical to a
     per-peer encode. *)
  let expected, wires, _ = multicast_wire ~clamp:1 (some_msgs ()) in
  Array.iteri
    (fun i wire ->
      checks (Printf.sprintf "peer %d wire bytes under clamp" (i + 1)) expected wire)
    wires

let test_loop_tick_remove () =
  let loop = Transport.Loop.create () in
  let kept = ref 0 and removed = ref 0 in
  let _k = Transport.Loop.on_tick loop (fun () -> incr kept) in
  let h = Transport.Loop.on_tick loop (fun () -> incr removed) in
  Transport.Loop.remove_tick loop h;
  Transport.Loop.remove_tick loop h (* double removal is a no-op *);
  Transport.Loop.run_for loop ~span:(Sim.Sim_time.ms 2);
  checkb "kept hook ran" true (!kept > 0);
  checki "removed hook never ran" 0 !removed

let test_large_frame_genuine_backpressure () =
  (* Frames several times larger than one kernel write chunk, pushed at a
     peer whose receive buffer is clamped tiny: the sender hits genuine
     partial writes and EAGAIN from write(2) itself — the path the
     [max_write] clamp cannot reach, because clamped offers always fit in
     one syscall. A write primitive that loses the bytes the kernel
     already accepted before EAGAIN (as [Unix.write]'s internal chunking
     does) re-sends them and corrupts the stream; the wire must stay
     byte-identical to a clean encode. *)
  let rng = Sim.Rng.create 7L in
  let _pk, sk = Crypto.Signature.keygen rng in
  let loop = Transport.Loop.create () in
  let conn =
    Transport.Conn.create ~loop ~id:0 ~outbuf_hwm:(64 * 1024 * 1024)
      ~on_msg:(fun ~src:_ _ -> ()) ()
  in
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int lfd Unix.SO_RCVBUF 16384;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 8;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  Transport.Conn.set_peer_addr conn 1 (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let batches =
    List.init 10_000 (fun i -> Workload.Request.make ~id:i ~count:1 ~size_each:64 ~born:0L ())
  in
  let msgs =
    List.init 8 (fun i ->
        Core.Msg.Datablock_msg
          (Core.Datablock.create ~sk ~creator:0 ~counter:(i + 1) ~now:0L batches))
  in
  let expected =
    Transport.Frame.encode_hello 0
    ^ String.concat "" (List.map Transport.Frame.encode_shared msgs)
  in
  checkb "each frame spans multiple kernel write chunks" true
    (String.length expected / List.length msgs > 2 * 65536);
  List.iter (fun m -> Transport.Conn.multicast conn ~n:2 m) msgs;
  (* Drive the loop and drain the peer concurrently; the bounded receive
     window keeps the sender under backpressure the whole way. *)
  let fd, _ = Unix.accept lfd in
  Unix.set_nonblock fd;
  let got = Buffer.create (String.length expected) in
  let chunk = Bytes.create 8192 in
  let deadline = Transport.Loop.now_ns loop + 30_000_000_000 in
  while
    Buffer.length got < String.length expected && Transport.Loop.now_ns loop < deadline
  do
    Transport.Loop.run_for loop ~span:(Sim.Sim_time.ms 1);
    let draining = ref true in
    while !draining do
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 ->
        draining := false;
        Alcotest.fail "peer stream ended early"
      | n -> Buffer.add_subbytes got chunk 0 n
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
        draining := false
    done
  done;
  checki "no drops under backpressure" 0 (Transport.Conn.dropped conn);
  checki "full wire received" (String.length expected) (Buffer.length got);
  checkb "wire byte-identical under genuine partial writes" true
    (String.equal expected (Buffer.contents got));
  Unix.close fd;
  Unix.close lfd;
  Transport.Conn.close conn

let test_multicast_delivery_and_stats () =
  (* Two real Conn endpoints: multicast delivery decodes back to the
     original message and the receive counters move. *)
  let loop = Transport.Loop.create () in
  let got = ref [] in
  let a = Transport.Conn.create ~loop ~id:0 ~on_msg:(fun ~src:_ _ -> ()) () in
  let b =
    Transport.Conn.create ~loop ~id:1 ~on_msg:(fun ~src msg -> got := (src, msg) :: !got) ()
  in
  let port = Transport.Conn.listen b () in
  Transport.Conn.set_peer_addr a 1 (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let msg = Core.Msg.Fetch { hash = Crypto.Hash.of_string "zz" } in
  Transport.Conn.multicast a ~n:2 msg;
  let ok = spin loop (fun () -> !got <> []) in
  checkb "delivered" true ok;
  (match !got with
  | [ (0, m) ] -> checkb "decodes equal" true (Core.Codec.msg_equal m msg)
  | _ -> Alcotest.fail "wrong delivery");
  let sb = Transport.Conn.stats b in
  checkb "receiver counted reads" true (sb.Transport.Conn.read_syscalls > 0);
  checki "receiver parsed hello + msg" 2 sb.Transport.Conn.frames_recvd;
  checkb "receiver counted bytes" true (sb.Transport.Conn.bytes_recvd > 0);
  Transport.Conn.close a;
  Transport.Conn.close b

(* -- transport memory per node -------------------------------------------- *)

(* Buffers the pool has handed out and not had back. *)
let pool_held p =
  let s = Transport.Pool.stats p in
  s.Transport.Pool.acquires - s.Transport.Pool.releases - s.Transport.Pool.dropped

let raw_dial port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  fd

(* Write all of [s] to the nonblocking [fd], running [loop] in between so
   the receiving [Conn] drains the socket. *)
let push loop fd s =
  let off = ref 0 in
  while !off < String.length s do
    (match Unix.single_write_substring fd s !off (String.length s - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    Transport.Loop.run_for loop ~span:(Sim.Sim_time.ms 1)
  done

(* A datablock message of [reqs] requests: about 21 wire bytes each. *)
let datablock_msg ~counter reqs =
  let _pk, sk = Crypto.Signature.keygen (Sim.Rng.create 11L) in
  Core.Msg.Datablock_msg
    (Core.Datablock.create ~sk ~creator:0 ~counter ~now:0L
       (List.init reqs (fun i -> Workload.Request.make ~id:i ~count:1 ~size_each:64 ~born:0L ())))

let test_memory_per_node_not_per_connection () =
  (* k accepted peers, one frame each: the readers hold nothing between
     frames, so the node holds its scratch and gather buffer and no more. *)
  let k = 32 in
  let loop = Transport.Loop.create () in
  let pool = Transport.Pool.create () in
  let got = ref 0 in
  let conn = Transport.Conn.create ~loop ~id:0 ~pool ~on_msg:(fun ~src:_ _ -> incr got) () in
  let port = Transport.Conn.listen conn () in
  let frame = Transport.Frame.encode_shared (Core.Msg.Fetch { hash = Crypto.Hash.of_string "m" }) in
  let fds =
    List.init k (fun i ->
        let fd = raw_dial port in
        push loop fd (Transport.Frame.encode_hello (i + 1) ^ frame);
        fd)
  in
  checkb "every peer's frame delivered" true (spin loop (fun () -> !got = k));
  checki "k accepted connections" k (Transport.Conn.live_connections conn);
  let held = pool_held pool in
  checkb (Printf.sprintf "at most 2 pool buffers held with %d peers (%d)" k held) true (held <= 2);
  List.iter Unix.close fds;
  Transport.Conn.close conn;
  checki "every buffer back after close" 0 (pool_held pool)

let test_partial_frames_over_sockets () =
  (* A frame sixteen reads long and a frame whose header is split across
     two reads: both arrive intact, and each partial-frame buffer goes
     back to the pool once its frame completes. *)
  let loop = Transport.Loop.create () in
  let pool = Transport.Pool.create () in
  let got = ref [] in
  let conn =
    Transport.Conn.create ~loop ~id:0 ~pool ~on_msg:(fun ~src:_ m -> got := m :: !got) ()
  in
  let port = Transport.Conn.listen conn () in
  let fd = raw_dial port in
  let big = datablock_msg ~counter:1 52_000 in
  let big_frame = Transport.Frame.encode_shared big in
  checkb "the large frame is over 1 MiB" true (String.length big_frame > 1 lsl 20);
  push loop fd (Transport.Frame.encode_hello 1 ^ big_frame);
  checkb "large frame delivered" true (spin loop (fun () -> List.length !got = 1));
  checki "its buffer is back" 2 (pool_held pool);
  let small = Core.Msg.Fetch { hash = Crypto.Hash.of_string "split" } in
  let frame = Transport.Frame.encode_shared small in
  let recvd () = (Transport.Conn.stats conn).Transport.Conn.bytes_recvd in
  let before = recvd () in
  push loop fd (String.sub frame 0 5);
  checkb "first 5 header bytes read" true (spin loop (fun () -> recvd () = before + 5));
  checki "a partial header holds one buffer" 3 (pool_held pool);
  push loop fd (String.sub frame 5 (String.length frame - 5));
  checkb "split-header frame delivered" true (spin loop (fun () -> List.length !got = 2));
  (match List.rev !got with
  | [ b; s ] ->
    checkb "large frame decodes equal" true (Core.Codec.msg_equal b big);
    checkb "split frame decodes equal" true (Core.Codec.msg_equal s small)
  | _ -> Alcotest.fail "wrong deliveries");
  checki "partial-frame buffers back in the pool" 2 (pool_held pool);
  Unix.close fd;
  Transport.Conn.close conn;
  checki "every buffer back after close" 0 (pool_held pool)

let test_multicast_burst_debug_pool () =
  (* Frames of many sizes, well past one 64 KiB read, so reads cut frames
     everywhere. The debug pool poisons every released buffer: a read of
     the scratch or of a partial-frame buffer after its release would
     decode poison, not the message. *)
  let k = 3 in
  let loop = Transport.Loop.create () in
  let pool = Transport.Pool.create ~debug:true () in
  let sender = Transport.Conn.create ~loop ~id:0 ~pool ~on_msg:(fun ~src:_ _ -> ()) () in
  let got = Array.make (k + 1) [] in
  let receivers =
    Array.init k (fun i ->
        Transport.Conn.create ~loop ~id:(i + 1) ~pool
          ~on_msg:(fun ~src:_ m -> got.(i + 1) <- m :: got.(i + 1))
          ())
  in
  Array.iteri
    (fun i r ->
      let port = Transport.Conn.listen r () in
      Transport.Conn.set_peer_addr sender (i + 1)
        (Unix.ADDR_INET (Unix.inet_addr_loopback, port)))
    receivers;
  let msgs =
    List.init 40 (fun i ->
        if i mod 3 = 0 then Core.Msg.Fetch { hash = Crypto.Hash.of_string (string_of_int i) }
        else datablock_msg ~counter:i (1 + (i * 397 mod 4000)))
  in
  List.iter (fun m -> Transport.Conn.multicast sender ~n:(k + 1) m) msgs;
  let n = List.length msgs in
  checkb "burst delivered to every peer" true
    (spin loop (fun () -> Array.for_all (fun l -> List.length l = n) (Array.sub got 1 k)));
  let expected = List.map Transport.Frame.encode_shared msgs in
  for i = 1 to k do
    checkb
      (Printf.sprintf "peer %d decodes byte-identically" i)
      true
      (List.map Transport.Frame.encode_shared (List.rev got.(i)) = expected)
  done;
  Transport.Conn.close sender;
  Array.iter Transport.Conn.close receivers;
  checki "every buffer back after close" 0 (pool_held pool)

let test_queued_bytes_gauge () =
  (* Frames queued to a peer that refuses connections stay queued; the
     gauge reports their sum over all peers. *)
  let loop = Transport.Loop.create () in
  let reg = Obs.Registry.create () in
  let conn = Transport.Conn.create ~loop ~id:0 ~obs:reg ~on_msg:(fun ~src:_ _ -> ()) () in
  let lfd, port = raw_listener () in
  Unix.close lfd;
  List.iter
    (fun dst ->
      Transport.Conn.set_peer_addr conn dst (Unix.ADDR_INET (Unix.inet_addr_loopback, port)))
    [ 1; 2 ];
  let msgs = some_msgs () in
  List.iter (fun m -> Transport.Conn.send conn ~dst:1 m) msgs;
  Transport.Conn.send conn ~dst:2 (List.hd msgs);
  Transport.Loop.run_for loop ~span:(Sim.Sim_time.ms 5);
  let frame_bytes m = String.length (Transport.Frame.encode_shared m) in
  let expected = List.fold_left (fun acc m -> acc + frame_bytes m) 0 msgs + frame_bytes (List.hd msgs) in
  ignore (Obs.Registry.expose reg : string);
  let g =
    Obs.Registry.gauge reg ~labels:[ ("node", "0") ] "leopard_transport_queued_bytes"
  in
  checki "gauge = bytes queued to all peers" expected (Obs.Gauge.value g);
  Transport.Conn.close conn

(* A downed host's listener accepts and closes at once. Resetting the
   backoff on every completed connect redialed it every 25-50 ms; the
   backoff must keep doubling instead (about 7 redials in 3 s). *)
let test_redial_backoff_grows_on_accept_and_close () =
  let loop = Transport.Loop.create () in
  let lfd, port = raw_listener () in
  Unix.set_nonblock lfd;
  let accepts = ref 0 in
  Transport.Loop.watch_read loop lfd (fun () ->
      match Unix.accept lfd with
      | fd, _ ->
        incr accepts;
        Unix.close fd
      | exception Unix.Unix_error _ -> ());
  let conn = Transport.Conn.create ~loop ~id:0 ~on_msg:(fun ~src:_ _ -> ()) () in
  Transport.Conn.set_peer_addr conn 1 (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Transport.Conn.send conn ~dst:1 (Core.Msg.Fetch { hash = Crypto.Hash.of_string "x" });
  Transport.Loop.run_for loop ~span:(Sim.Sim_time.s 3);
  let redials = (Transport.Conn.stats conn).Transport.Conn.reconnects in
  checkb (Printf.sprintf "the peer was dialed (%d accepts)" !accepts) true (!accepts >= 2);
  checkb (Printf.sprintf "at most 8 redials in 3 s, got %d" redials) true (redials <= 8);
  Transport.Conn.close conn;
  Transport.Loop.unwatch loop lfd;
  Unix.close lfd

(* -- real-TCP clusters --------------------------------------------------- *)

(* Small batches and snappy timers: commits every few tens of
   milliseconds at modest load. The view timeout is set far beyond the
   test's wall clock so view changes never race a short run (the leader
   stays up in both scenarios; faults here target the transport, not the
   view-change protocol, which the sim suite covers). *)
let tcp_cfg () =
  Core.Config.make ~n:4 ~alpha:10 ~bft_size:2 ~k:16 ~payload:64
    ~datablock_timeout:(Sim.Sim_time.ms 20) ~proposal_timeout:(Sim.Sim_time.ms 20)
    ~view_timeout:(Sim.Sim_time.s 120) ~fetch_grace:(Sim.Sim_time.ms 200)
    ~cost:Crypto.Cost_model.free ()

let test_tcp_cluster_commits_and_converges () =
  let r =
    Transport.Cluster.run ~cfg:(tcp_cfg ()) ~load:2000. ~duration:(Sim.Sim_time.s 25)
      ~drain:(Sim.Sim_time.s 10) ~min_confirmed:1200 ()
  in
  checkb "confirmed >= 1000 requests" true (r.Transport.Cluster.confirmed >= 1000);
  checkb "well within the 30 s budget" true (r.Transport.Cluster.wall_sec < 25.);
  checkb "honest replicas reached one state hash" true r.Transport.Cluster.converged;
  checkb "ledgers agree position-wise" true r.Transport.Cluster.ledgers_agree;
  (match r.Transport.Cluster.state_hashes with
  | (_, h) :: rest ->
    checkb "state hashes literally equal" true
      (List.for_all (fun (_, h') -> Crypto.Hash.equal h h') rest)
  | [] -> Alcotest.fail "no state hashes")

let run_until_or_deadline cluster ~deadline_ns pred =
  Transport.Cluster.run_while cluster (fun c ->
      Transport.Loop.now_ns (Transport.Cluster.loop c) < deadline_ns && not (pred c));
  pred cluster

let test_tcp_cluster_survives_fault_and_reconnects () =
  let cfg = tcp_cfg () in
  let cluster = Transport.Cluster.create ~cfg ~load:2000. () in
  let loop = Transport.Cluster.loop cluster in
  let leader = Core.Config.leader_of_view cfg 1 in
  let victim = (leader + 1) mod 4 in
  Transport.Cluster.start_load cluster;
  let ok =
    run_until_or_deadline cluster
      ~deadline_ns:(Transport.Loop.now_ns loop + 15_000_000_000)
      (fun c -> Transport.Cluster.confirmed c >= 300)
  in
  checkb "cluster commits before the fault" true ok;
  (* Kill a non-leader mid-run: its sockets close, peers see EOF. *)
  Transport.Cluster.set_replica_down cluster victim true;
  let base = Transport.Cluster.confirmed cluster in
  let ok =
    run_until_or_deadline cluster
      ~deadline_ns:(Transport.Loop.now_ns loop + 15_000_000_000)
      (fun c -> Transport.Cluster.confirmed c >= base + 300)
  in
  checkb "cluster keeps committing with a replica down (n=4 tolerates f=1)" true ok;
  (* Revive: peers' capped-backoff redials and the victim's own dials
     must knit it back into the mesh. *)
  Transport.Cluster.set_replica_down cluster victim false;
  let victim_conn = Transport.Runtime.conn (Transport.Cluster.nodes cluster).(victim) in
  let ok =
    run_until_or_deadline cluster
      ~deadline_ns:(Transport.Loop.now_ns loop + 15_000_000_000)
      (fun _ -> Transport.Conn.live_connections victim_conn > 0)
  in
  checkb "revived replica reconnected via backoff" true ok;
  Transport.Cluster.stop_load cluster;
  let ok =
    run_until_or_deadline cluster
      ~deadline_ns:(Transport.Loop.now_ns loop + 20_000_000_000)
      Transport.Cluster.state_converged
  in
  checkb "revived replica caught back up to the common state" true ok;
  checkb "ledgers agree after the fault" true
    (Core.Driver.ledgers_agree (Transport.Cluster.driver cluster));
  Transport.Cluster.close cluster

(* An idle view-1 leader that receives one datablock from each
   non-leader in one loop round proposes them together: the first
   BFTblock links all n-1, not the first arrival alone while the rest
   wait a whole [proposal_timeout]. alpha = 1 packs each request on
   submit, and BFTsize 8 keeps the full-block rule out of play. *)
let test_tcp_first_proposal_links_round () =
  let cfg =
    Core.Config.make ~n:4 ~alpha:1 ~bft_size:8 ~k:16 ~payload:64
      ~datablock_timeout:(Sim.Sim_time.ms 20) ~proposal_timeout:(Sim.Sim_time.ms 20)
      ~view_timeout:(Sim.Sim_time.s 120) ~fetch_grace:(Sim.Sim_time.ms 200)
      ~cost:Crypto.Cost_model.free ()
  in
  let cluster = Transport.Cluster.create ~cfg ~verify_domains:0 () in
  let loop = Transport.Cluster.loop cluster in
  let replicas = Transport.Cluster.replicas cluster in
  let leader = Core.Config.leader_of_view cfg 1 in
  Array.iteri
    (fun id r ->
      if id <> leader then
        let b =
          Workload.Request.make ~id ~count:1 ~size_each:64 ~born:(Transport.Loop.now loop) ()
        in
        match Core.Replica.submit r b with
        | Core.Replica.Admitted -> ()
        | Core.Replica.Rejected _ -> Alcotest.failf "replica %d refused the request" id)
    replicas;
  let ledger = Core.Replica.ledger replicas.(leader) in
  let ok =
    run_until_or_deadline cluster
      ~deadline_ns:(Transport.Loop.now_ns loop + 10_000_000_000)
      (fun _ -> Core.Ledger.is_confirmed ledger 1)
  in
  checkb "the leader confirmed serial 1" true ok;
  let links =
    match Core.Ledger.get ledger 1 with
    | Some b -> List.length b.Core.Bftblock.links
    | None -> 0
  in
  checki "the first proposal links every non-leader's datablock" 3 links;
  Transport.Cluster.close cluster

(* The full four-layer metrics surface on the real stack: one short TCP
   run with a registry attached must leave series from the consensus
   layer (per-replica counters, a NON-empty confirm-latency histogram),
   the transport (frames/bytes mirrors), the verify pool and the store —
   and [--metrics-out]'s periodic dump must land on disk as the same
   parseable exposition text. *)
let test_tcp_cluster_metrics_all_layers () =
  let dir = Filename.temp_file "obs_cluster" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "metrics.prom" in
  let reg = Obs.Registry.create () in
  let r =
    Transport.Cluster.run ~cfg:(tcp_cfg ()) ~load:2000. ~duration:(Sim.Sim_time.s 25)
      ~drain:(Sim.Sim_time.s 10) ~min_confirmed:1000 ~obs:reg ~metrics_out:path
      ~metrics_interval_ns:100_000_000 ()
  in
  checkb "run confirmed requests" true (r.Transport.Cluster.confirmed >= 1000);
  let text = Obs.Registry.expose reg in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun series -> checkb (series ^ " present") true (contains series))
    [ (* consensus *)
      "leopard_replica_commits_total";
      "leopard_replica_datablocks_total";
      "leopard_confirm_latency_ns_bucket";
      "leopard_confirmed_requests_total";
      (* transport *)
      "leopard_transport_frames_sent_total";
      "leopard_transport_bytes_recvd_total";
      "leopard_transport_coalesce_ratio_x1000";
      (* verify pool *)
      "leopard_verify_tasks_total";
      "leopard_verify_task_latency_ns";
      (* store *)
      "leopard_store_append_latency_ns";
      "leopard_store_rotations_total" ];
  checkb "confirm histogram non-empty" true
    (not (contains "leopard_confirm_latency_ns_count 0\n"));
  (* the periodic dump made it to disk and is the same exposition text
     shape (the final dump in [close] runs after the last scrape) *)
  checkb "dump file exists" true (Sys.file_exists path);
  let ic = open_in_bin path in
  let dumped = really_input_string ic (in_channel_length ic) in
  close_in ic;
  checkb "dump has HELP/TYPE headers" true
    (String.length dumped > 0 && String.sub dumped 0 1 = "#");
  Sys.remove path;
  Unix.rmdir dir

let () =
  Alcotest.run "transport"
    [ ( "frame",
        [ Alcotest.test_case "hello golden bytes" `Quick test_frame_hello_golden;
          Alcotest.test_case "msg golden bytes" `Quick test_frame_msg_golden;
          Alcotest.test_case "byte-at-a-time feed" `Quick test_frame_byte_at_a_time;
          Alcotest.test_case "coalesced feed" `Quick test_frame_coalesced;
          Alcotest.test_case "short read at eof" `Quick test_frame_short_read;
          Alcotest.test_case "error taxonomy & poisoning" `Quick test_frame_errors ] );
      ( "loop",
        [ Alcotest.test_case "same-instant FIFO" `Quick test_loop_timer_fifo;
          Alcotest.test_case "cancel" `Quick test_loop_cancel;
          Alcotest.test_case "schedule from callback" `Quick test_loop_schedule_from_callback;
          Alcotest.test_case "tick hook removal" `Quick test_loop_tick_remove ] );
      ("loop fds", loop_fd_cases);
      ( "data plane",
        [ Alcotest.test_case "pool: reuse, poison, double free" `Quick
            test_pool_reuse_poison_double_free;
          Alcotest.test_case "multicast: wire bytes = per-peer encode" `Quick
            test_multicast_byte_equivalence;
          Alcotest.test_case "multicast: gather coalesces writes" `Quick
            test_multicast_coalesces_writes;
          Alcotest.test_case "multicast: 1-byte write torture" `Quick
            test_multicast_one_byte_torture;
          Alcotest.test_case "large frames: genuine kernel backpressure" `Quick
            test_large_frame_genuine_backpressure;
          Alcotest.test_case "redial backoff grows on accept-and-close" `Quick
            test_redial_backoff_grows_on_accept_and_close;
          Alcotest.test_case "multicast: delivery & recv counters" `Quick
            test_multicast_delivery_and_stats;
          Alcotest.test_case "memory: per node, not per connection" `Quick
            test_memory_per_node_not_per_connection;
          Alcotest.test_case "memory: partial frames over sockets" `Quick
            test_partial_frames_over_sockets;
          Alcotest.test_case "memory: multicast burst, debug pool" `Quick
            test_multicast_burst_debug_pool;
          Alcotest.test_case "queued-bytes gauge" `Quick test_queued_bytes_gauge ] );
      ( "tcp cluster",
        [ Alcotest.test_case "commits & state-hash agreement" `Quick
            test_tcp_cluster_commits_and_converges;
          Alcotest.test_case "metrics cover all four layers" `Quick
            test_tcp_cluster_metrics_all_layers;
          Alcotest.test_case "first proposal links the round" `Quick
            test_tcp_first_proposal_links_round;
          Alcotest.test_case "fault: kill, survive, reconnect" `Quick
            test_tcp_cluster_survives_fault_and_reconnects ] ) ]

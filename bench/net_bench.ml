(* Transport benchmark: the zero-copy TCP data plane under multicast
   load, with a JSON baseline and per-n regression gates.

   (The module is [Net_bench] rather than [Net] only because the bench
   executable already links the [net] library under that name.)

   One sender node multicasts protocol messages over real loopback TCP
   to n-1 receiver nodes sharing one event loop — the leader's fan-out,
   isolated from consensus logic so the numbers are the transport's own:

     - frames/s delivered end-to-end (framed, written, read, decoded),
     - write(2) and read(2) syscalls per frame (the gather-write and
       bulk-read coalescing factors),
     - GC minor words per frame: the whole steady-state cost of queueing,
       flushing, reading and in-place decoding, encode included once per
       multicast. With pooled buffers and ring queues the transport
       itself allocates nothing per frame; what remains is the shared
       encode (amortized over n-1 peers) and the decoded message,
     - pooled bytes per connection after warm-up: the buffers the n
       nodes hold from the pool, over the n-1 connections. Transport
       buffers are per node (a read scratch and a gather buffer each),
       so this stays near 2 x 64 KiB x n/(n-1); a per-connection buffer
       would add its size at every n.

   A star, not a full mesh: n=64 needs 63 connections (~130 fds), while a
   mesh would need ~8000. That was past FD_SETSIZE for a select(2) loop;
   the epoll loop has no such cap, and a mesh leg is future work. The
   full protocol over a (small) mesh is exercised by the cluster tests
   and the CLI's local-cluster; this bench pins the data-plane costs.

     dune exec bench/main.exe -- --only net
     dune exec bench/main.exe -- --only net --check-regressions

   The run writes [BENCH_net.json]; with [--check-regressions] it
   compares against the checked-in baseline and exits nonzero when any n
   got more than 2x worse: slower (frames/s), more syscalls per frame,
   more allocation per frame, or more pooled bytes per connection. *)

type row = {
  n : int;
  wall_s : float;
  frames : int; (* frames delivered to receivers during the window *)
  frames_per_s : float;
  writes_per_frame : float;
  reads_per_frame : float;
  minor_words_per_frame : float;
  pool_bytes_per_conn : float;
}

(* The overload leg: sustained bursts past the sender's HWM, bulk
   datablock frames mixed with consensus-critical ones. What it pins is
   the kind-aware drop policy's contract under saturation — consensus
   frames keep flowing (their throughput is the trended metric and the
   regression gate), and the gate additionally fails hard on any
   consensus-kind backpressure drop, baseline or not. *)
type overload_row = {
  o_n : int;
  o_wall_s : float;
  consensus_frames : int;     (* consensus frames delivered end-to-end *)
  consensus_frames_per_s : float;
  consensus_drops : int;      (* backpressure drops on consensus kinds *)
  bulk_drop_ratio : float;    (* dropped bulk frames / offered bulk frames *)
}

let chunk = 256 (* multicasts per batch; bounded well below the HWM *)

(* ------------------------------------------------------------------ *)
(* One measured run                                                     *)
(* ------------------------------------------------------------------ *)

let run_one ~fast n =
  let loop = Transport.Loop.create () in
  let pool = Transport.Pool.create () in
  let received = ref 0 in
  let sender =
    Transport.Conn.create ~loop ~id:0 ~pool ~on_msg:(fun ~src:_ _ -> ()) ()
  in
  let receivers =
    Array.init (n - 1) (fun i ->
        Transport.Conn.create ~loop ~id:(i + 1) ~pool
          ~on_msg:(fun ~src:_ _ -> incr received)
          ())
  in
  Array.iteri
    (fun i r ->
      let port = Transport.Conn.listen r () in
      Transport.Conn.set_peer_addr sender (i + 1)
        (Unix.ADDR_INET (Unix.inet_addr_loopback, port)))
    receivers;
  (* Protocol-shaped small frames (a Fetch: 48 wire bytes) — the size
     class where syscalls/frame and words/frame are won or lost. *)
  let msgs =
    Array.init chunk (fun i ->
        Core.Msg.Fetch { hash = Crypto.Hash.of_string (string_of_int i) })
  in
  let deadline_spin target =
    let limit = Transport.Loop.now_ns loop + 20_000_000_000 in
    Transport.Loop.run_while loop (fun () ->
        !received < target && Transport.Loop.now_ns loop < limit);
    if !received < target then failwith "net bench: delivery stalled"
  in
  let batch () =
    let target = !received + (chunk * (n - 1)) in
    Array.iter (fun m -> Transport.Conn.multicast sender ~n m) msgs;
    deadline_spin target
  in
  (* Warmup: connections dialed, rings sized, pool warm, buffers grown. *)
  for _ = 1 to 4 do
    batch ()
  done;
  let pool_bytes_per_conn =
    float_of_int (Transport.Pool.stats pool).Transport.Pool.held_bytes /. float_of_int (n - 1)
  in
  let window = if fast then 0.3 else 1.0 in
  let stats0 =
    let s = Transport.Conn.stats sender in
    (s.Transport.Conn.write_syscalls, s.Transport.Conn.frames_sent)
  in
  let reads0 =
    Array.fold_left
      (fun acc r -> acc + (Transport.Conn.stats r).Transport.Conn.read_syscalls)
      0 receivers
  in
  let recv0 = !received in
  Gc.full_major ();
  let minor0 = Gc.minor_words () in
  let wall0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. wall0 < window do
    batch ()
  done;
  let wall_s = Unix.gettimeofday () -. wall0 in
  let minor = Gc.minor_words () -. minor0 in
  let frames = !received - recv0 in
  let writes, sent =
    let s = Transport.Conn.stats sender in
    ( s.Transport.Conn.write_syscalls - fst stats0,
      s.Transport.Conn.frames_sent - snd stats0 )
  in
  let reads =
    Array.fold_left
      (fun acc r -> acc + (Transport.Conn.stats r).Transport.Conn.read_syscalls)
      0 receivers
    - reads0
  in
  Transport.Conn.close sender;
  Array.iter Transport.Conn.close receivers;
  assert (sent = frames);
  let per x = if frames = 0 then 0. else float_of_int x /. float_of_int frames in
  { n;
    wall_s;
    frames;
    frames_per_s = (if wall_s <= 0. then 0. else float_of_int frames /. wall_s);
    writes_per_frame = per writes;
    reads_per_frame = per reads;
    minor_words_per_frame = (if frames = 0 then 0. else minor /. float_of_int frames);
    pool_bytes_per_conn }

let ns = [ 4; 16; 64 ]

(* ------------------------------------------------------------------ *)
(* The overload leg                                                     *)
(* ------------------------------------------------------------------ *)

(* Small on purpose: a 64 KiB HWM makes saturation reachable with modest
   bursts, so the drop policy (not the kernel) is what's measured. *)
let overload_hwm = 64 * 1024

let run_overload ~fast n =
  let loop = Transport.Loop.create () in
  let pool = Transport.Pool.create () in
  let consensus_recvd = ref 0 in
  let on_msg ~src:_ m =
    match Core.Msg.kind_priority (Core.Msg.kind m) with
    | Net.Nic.High -> incr consensus_recvd
    | Net.Nic.Low -> ()
  in
  let sender =
    Transport.Conn.create ~loop ~id:0 ~pool ~outbuf_hwm:overload_hwm ~on_msg ()
  in
  let receivers =
    Array.init (n - 1) (fun i ->
        Transport.Conn.create ~loop ~id:(i + 1) ~pool ~on_msg ())
  in
  Array.iteri
    (fun i r ->
      let port = Transport.Conn.listen r () in
      Transport.Conn.set_peer_addr sender (i + 1)
        (Unix.ADDR_INET (Unix.inet_addr_loopback, port)))
    receivers;
  (* Bulk: fat datablocks (~1.1 KiB framed) whose burst overflows the
     HWM every round. Consensus: small Fetch frames, bursts well inside
     the reserved headroom — so by construction the policy must deliver
     every one of them, and the gate holds it to that. *)
  let rng = Sim.Rng.create 0xBEADL in
  let _pk, sk = Crypto.Signature.keygen rng in
  let bulk_msg =
    Core.Msg.Datablock_msg
      (Core.Datablock.create ~sk ~creator:0 ~counter:1 ~now:0L
         (List.init 50 (fun i ->
              Workload.Request.make ~id:i ~count:4 ~size_each:64 ~born:0L ())))
  in
  let bulk_burst = 100 (* ~115 KiB enqueued per peer: past the HWM *) in
  let consensus_burst = 256 (* ~12 KiB: inside the headroom *) in
  let consensus_msgs =
    Array.init consensus_burst (fun i ->
        Core.Msg.Fetch { hash = Crypto.Hash.of_string (string_of_int i) })
  in
  let bulk_offered = ref 0 in
  let batch () =
    for _ = 1 to bulk_burst do
      Transport.Conn.multicast sender ~n bulk_msg;
      bulk_offered := !bulk_offered + (n - 1)
    done;
    let target = !consensus_recvd + (consensus_burst * (n - 1)) in
    Array.iter (fun m -> Transport.Conn.multicast sender ~n m) consensus_msgs;
    let limit = Transport.Loop.now_ns loop + 20_000_000_000 in
    Transport.Loop.run_while loop (fun () ->
        !consensus_recvd < target && Transport.Loop.now_ns loop < limit);
    if !consensus_recvd < target then
      failwith "net bench overload: consensus delivery stalled"
  in
  for _ = 1 to 4 do
    batch ()
  done;
  let window = if fast then 0.3 else 1.0 in
  let recv0 = !consensus_recvd in
  let wall0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. wall0 < window do
    batch ()
  done;
  let wall_s = Unix.gettimeofday () -. wall0 in
  let consensus_frames = !consensus_recvd - recv0 in
  let bulk_drops = Transport.Conn.dropped_by_kind sender Core.Msg.K_datablock in
  let consensus_drops =
    Transport.Conn.dropped_backpressure sender
    - bulk_drops
    - Transport.Conn.dropped_by_kind sender Core.Msg.K_fetch_reply
  in
  let offered = !bulk_offered in
  Transport.Conn.close sender;
  Array.iter Transport.Conn.close receivers;
  { o_n = n;
    o_wall_s = wall_s;
    consensus_frames;
    consensus_frames_per_s =
      (if wall_s <= 0. then 0. else float_of_int consensus_frames /. wall_s);
    consensus_drops;
    bulk_drop_ratio =
      (if offered = 0 then 0. else float_of_int bulk_drops /. float_of_int offered) }

let overload_ns = [ 4 ]

(* ------------------------------------------------------------------ *)
(* Baseline and gates                                                  *)
(* ------------------------------------------------------------------ *)

let schema =
  Bench_gate.
    [ int ~key:true "n" (fun r -> r.n);
      float 2 "wall_s" (fun r -> r.wall_s);
      int "frames" (fun r -> r.frames);
      float 0 "frames_per_s" ~gate:Higher_is_better (fun r -> r.frames_per_s);
      float 4 "writes_per_frame" ~gate:Lower_is_better (fun r -> r.writes_per_frame);
      float 4 "reads_per_frame" ~gate:Lower_is_better (fun r -> r.reads_per_frame);
      float 1 "minor_words_per_frame" ~gate:Lower_is_better (fun r -> r.minor_words_per_frame);
      float 0 "pool_bytes_per_conn" ~gate:Lower_is_better (fun r -> r.pool_bytes_per_conn) ]

(* The overload gate is two-headed: delivered consensus throughput gates
   against the baseline like the other legs, and any consensus-kind
   backpressure drop fails outright (the policy's invariant, not a
   relative measure). *)
let overload_schema =
  Bench_gate.
    [ str ~key:true "leg" (fun _ -> "overload");
      int ~key:true "n" (fun r -> r.o_n);
      float 2 "wall_s" (fun r -> r.o_wall_s);
      int "consensus_frames" (fun r -> r.consensus_frames);
      float 0 "consensus_frames_per_s" ~gate:Higher_is_better (fun r -> r.consensus_frames_per_s);
      int "consensus_drops" (fun r -> r.consensus_drops);
      float 3 "bulk_drop_ratio" (fun r -> r.bulk_drop_ratio) ]

let drop_gate orows =
  List.filter_map
    (fun r ->
      if r.consensus_drops > 0 then
        Some
          (Bench_gate.failure
             (Printf.sprintf "leg=overload n=%d consensus_drops" r.o_n)
             (Printf.sprintf
                "overload n=%d: %d consensus-kind frames dropped under backpressure (must be 0)"
                r.o_n r.consensus_drops))
      else None)
    orows

let run ~fast ~check =
  let rows =
    List.map
      (fun n ->
        let r = run_one ~fast n in
        Harness.say "  n=%-3d %7d frames in %.2fs (%.0fk frames/s, %.4f writes/frame)" n
          r.frames r.wall_s (r.frames_per_s /. 1e3) r.writes_per_frame;
        r)
      ns
  in
  let orows =
    List.map
      (fun n ->
        let r = run_overload ~fast n in
        Harness.say
          "  overload n=%-3d %7d consensus frames in %.2fs (%.0fk/s, %d consensus \
           drops, %.0f%% bulk dropped)"
          n r.consensus_frames r.o_wall_s
          (r.consensus_frames_per_s /. 1e3)
          r.consensus_drops (r.bulk_drop_ratio *. 100.);
        r)
      overload_ns
  in
  Harness.say "";
  Bench_gate.finish ~id:"net" ~file:"BENCH_net.json" ~check ~absolute:(drop_gate orows)
    [ Bench_gate.table schema rows; Bench_gate.table overload_schema orows ]

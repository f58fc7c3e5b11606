let default_outbuf_hwm = 4 * 1024 * 1024

let backoff_base_ns = 50_000_000 (* 50 ms *)
let backoff_cap_ns = 2_000_000_000 (* 2 s *)

let read_chunk = 65536
let gather_bytes = 65536

(* Upper bound on bytes [Unix.single_write] accepts per call
   (UNIX_BUFFER_SIZE in the OCaml runtime). Clamping [want] to it keeps
   the short-write heuristic honest: without the clamp, a write the
   runtime silently truncated to this size would look like a kernel
   short write and park the connection on writability for nothing. *)
let max_single_write = 65536

(* Per-peer pending-frame queue: a power-of-two ring of frame strings.
   Pushing to a [Queue.t] allocates a cell per frame; the ring's steady
   state allocates nothing (slots are reused, popped slots cleared so
   frames are not kept live by the queue). *)
module Ring = struct
  type t = {
    mutable buf : string array;
    mutable head : int;
    mutable len : int;
  }

  let create () = { buf = Array.make 16 ""; head = 0; len = 0 }
  let length r = r.len

  let grow r =
    let cap = Array.length r.buf in
    let nbuf = Array.make (cap * 2) "" in
    for i = 0 to r.len - 1 do
      nbuf.(i) <- r.buf.((r.head + i) land (cap - 1))
    done;
    r.buf <- nbuf;
    r.head <- 0

  let push r s =
    if r.len = Array.length r.buf then grow r;
    r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- s;
    r.len <- r.len + 1

  (* [peek]/[get] assume [i < len]; callers guard. *)
  let peek r = r.buf.(r.head)
  let get r i = r.buf.((r.head + i) land (Array.length r.buf - 1))

  let pop r =
    let s = r.buf.(r.head) in
    r.buf.(r.head) <- "";
    r.head <- (r.head + 1) land (Array.length r.buf - 1);
    r.len <- r.len - 1;
    s

  let clear r =
    Array.fill r.buf 0 (Array.length r.buf) "";
    r.head <- 0;
    r.len <- 0
end

(* An outgoing (dialed) connection to one peer. The pending ring holds
   whole frames — possibly the same string as other peers' rings, for
   multicast — and [head_off] tracks how much of the head frame the
   kernel has taken so far; that per-peer offset is what makes sharing
   safe under partial writes. *)
type out_state =
  | Idle
  | Waiting of Loop.handle (* backoff redial pending *)
  | Connecting of Unix.file_descr
  | Connected of Unix.file_descr

type out_conn = {
  dst : Net.Node_id.t;
  mutable state : out_state;
  q : Ring.t;
  mutable q_bytes : int;
  mutable head_off : int;
  mutable pre : string; (* unsent hello prefix on a fresh connection *)
  mutable pre_off : int;
  mutable backoff_ns : int; (* base of the next redial's delay *)
  (* The base the redial before this connection waited out, and when
     the connection came up: only a connection that outlives that wait
     resets [backoff_ns]. A downed host's listener accepts and closes at
     once, and resetting on every connect kept its dialers at the base,
     redialing it many times a second. *)
  mutable waited_ns : int;
  mutable up_at_ns : int;
  mutable flush_queued : bool; (* already on the loop-tick flush list *)
}

(* An incoming (accepted) connection; [src] is unknown until the hello. *)
type in_conn = {
  in_fd : Unix.file_descr;
  reader : Frame.reader;
  mutable src : Net.Node_id.t option;
}

type stats = {
  mutable write_syscalls : int;
  mutable read_syscalls : int;
  mutable frames_sent : int;  (* fully handed to the kernel *)
  mutable frames_recvd : int; (* parsed, hellos included *)
  mutable bytes_sent : int;
  mutable bytes_recvd : int;
  mutable reconnects : int;   (* backoff redials scheduled *)
}

type t = {
  loop : Loop.t;
  id : Net.Node_id.t;
  max_frame : int;
  hwm : int;
  on_msg : src:Net.Node_id.t -> Core.Msg.t -> unit;
  outs : (Net.Node_id.t, out_conn) Hashtbl.t;
  ins : (Unix.file_descr, in_conn) Hashtbl.t;
  addrs : (Net.Node_id.t, Unix.sockaddr) Hashtbl.t;
  mutable listener : Unix.file_descr option;
  mutable down : bool;
  (* Drop accounting, split by cause so overload (backpressure) is never
     conflated with a dead peer window (disconnected) or a missing
     address. [dropped] below reports the sum. *)
  mutable dropped_backpressure : int;
  mutable dropped_no_addr : int;
  mutable dropped_disconnected : int;
  (* Backpressure drops by message kind ([Core.Msg.kind_index]-indexed):
     the kind-aware policy's audit trail — consensus-critical kinds must
     stay at zero while datablock frames absorb the overload. *)
  dropped_kinds : int array;
  mutable fault : (dst:Net.Node_id.t -> Core.Msg.t -> Net.Network.fault_verdict) option;
  mutable faulted : int;
  mutable max_write : int; (* debug clamp on bytes per write(2) *)
  mutable flushq : out_conn list; (* peers with frames queued this tick *)
  mutable tick : Loop.tick_handle option; (* flush hook; removed on close *)
  rng : Random.State.t;
  pool : Pool.t;
  (* The node's two transport buffers, pooled for its lifetime and shared
     by all its connections: every read lands in [scratch], every gather
     write is packed in [wbuf]. They must stay distinct: frame callbacks
     run while [Frame.feed] is still parsing [scratch], and a hello can
     run [dial_now] -> [on_connected] -> [try_flush] inline. For the
     same reason no frame callback may read a socket inline. *)
  scratch : Bytes.t;
  wbuf : Bytes.t;
  stats : stats;
}

let is_down t = t.down
let dropped t = t.dropped_backpressure + t.dropped_no_addr + t.dropped_disconnected
let dropped_backpressure t = t.dropped_backpressure
let dropped_no_addr t = t.dropped_no_addr
let dropped_disconnected t = t.dropped_disconnected
let dropped_by_kind t kind = t.dropped_kinds.(Core.Msg.kind_index kind)

(* Egress queue pressure: the fullest peer queue relative to the HWM.
   0 = idle; >= 1 = at or beyond the bulk-frame drop threshold (the
   consensus headroom above the HWM pushes it past 1). *)
let pressure t =
  if t.hwm <= 0 then 0.
  else
    Hashtbl.fold
      (fun _ oc acc -> Float.max acc (float_of_int oc.q_bytes /. float_of_int t.hwm))
      t.outs 0.

let set_fault t f = t.fault <- f
let stats t = t.stats
let pool t = t.pool
let set_max_write t n = t.max_write <- (if n <= 0 then max_int else n)

let set_peer_addr t dst addr = Hashtbl.replace t.addrs dst addr

(* -- teardown helpers --------------------------------------------------- *)

let close_fd t fd =
  Loop.unwatch t.loop fd;
  try Unix.close fd with Unix.Unix_error _ -> ()

let close_in t (ic : in_conn) =
  if Hashtbl.mem t.ins ic.in_fd then begin
    Hashtbl.remove t.ins ic.in_fd;
    Frame.release ic.reader;
    close_fd t ic.in_fd
  end

(* Throw away everything queued toward one peer. Frames lost this way
   were queued while the node (or the link) was alive and die with the
   dead window — a distinct loss class from backpressure, counted under
   [dropped_disconnected] so overload diagnostics are not polluted by
   ordinary crash/reconnect churn. *)
let drop_queue t oc =
  t.dropped_disconnected <- t.dropped_disconnected + Ring.length oc.q;
  Ring.clear oc.q;
  oc.q_bytes <- 0;
  oc.head_off <- 0;
  oc.pre <- "";
  oc.pre_off <- 0

let reset_out t oc =
  (match oc.state with
  | Idle -> ()
  | Waiting h -> Loop.cancel t.loop h
  | Connecting fd | Connected fd -> close_fd t fd);
  oc.state <- Idle

(* -- outgoing: dial, flush, redial -------------------------------------- *)

(* Advance the queue past [n] kernel-accepted bytes: whole frames pop
   (and count as sent), a trailing partial just moves [head_off]. *)
let queue_advance t oc n =
  let rem = ref n in
  while !rem > 0 do
    let head = Ring.peek oc.q in
    let head_rem = String.length head - oc.head_off in
    if !rem >= head_rem then begin
      ignore (Ring.pop oc.q : string);
      oc.q_bytes <- oc.q_bytes - String.length head;
      oc.head_off <- 0;
      t.stats.frames_sent <- t.stats.frames_sent + 1;
      rem := !rem - head_rem
    end
    else begin
      oc.head_off <- oc.head_off + !rem;
      rem := 0
    end
  done

(* Pack frames from the queue head into [t.wbuf] (starting at the head
   frame's unwritten tail) until the buffer is full or the queue runs
   out; returns the fill. Bytes packed but not accepted by the kernel are
   simply re-packed next round — [queue_advance] only trusts write(2)'s
   return. *)
let gather t oc =
  let cap = Bytes.length t.wbuf in
  let filled = ref 0 in
  let i = ref 0 in
  let off = ref oc.head_off in
  while !filled < cap && !i < Ring.length oc.q do
    let fr = Ring.get oc.q !i in
    let take = min (cap - !filled) (String.length fr - !off) in
    Bytes.blit_string fr !off t.wbuf !filled take;
    filled := !filled + take;
    off := 0;
    incr i
  done;
  !filled

let rec connect_out t oc =
  match Hashtbl.find_opt t.addrs oc.dst with
  | None -> () (* counted at send time *)
  | Some addr -> (
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    match Unix.connect fd addr with
    | () -> on_connected t oc fd
    | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) ->
      oc.state <- Connecting fd;
      Loop.watch_write t.loop fd (fun () ->
          match Unix.getsockopt_error fd with
          | None ->
            Loop.unwatch_write t.loop fd;
            on_connected t oc fd
          | Some _ -> fail_out t oc)
    | exception Unix.Unix_error (_, _, _) ->
      close_fd t fd;
      schedule_redial t oc)

and on_connected t oc fd =
  oc.state <- Connected fd;
  oc.up_at_ns <- Loop.now_ns t.loop;
  oc.pre <- Frame.encode_hello t.id;
  oc.pre_off <- 0;
  oc.head_off <- 0;
  (* Watch for EOF/reset; the peer never sends frames back on a dialed
     connection, so any bytes read are drained and ignored. *)
  Loop.watch_read t.loop fd (fun () ->
      match Unix.read fd t.scratch 0 (Bytes.length t.scratch) with
      | 0 -> fail_out t oc
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
        -> ()
      | exception Unix.Unix_error (_, _, _) -> fail_out t oc);
  try_flush t oc

and try_flush t oc =
  match oc.state with
  | Idle | Waiting _ | Connecting _ -> ()
  | Connected fd -> (
    let progress = ref true in
    let blocked = ref false in
    (* One write(2) per iteration — [Unix.single_write], never
       [Unix.write]: the latter loops over internal chunks and raises
       EAGAIN without reporting bytes the kernel already accepted, which
       would re-send them next flush and corrupt the stream mid-frame.
       [single_write] maps to exactly one syscall and reports every
       accepted byte, so [queue_advance] always sees the truth. Each call
       is offered as many bytes as we have (clamped by [max_write] and
       [max_single_write]): the hello tail, then either the head frame
       written directly from its own string — zero copy, when it is large
       or alone — or a gather of many small frames coalesced through
       [t.wbuf] so one syscall drains them all. A short write means the
       kernel buffer is full: stop and wait for writability. *)
    (try
       while !progress && not !blocked do
         if oc.pre_off < String.length oc.pre then begin
           let want =
             min (min (String.length oc.pre - oc.pre_off) t.max_write) max_single_write
           in
           let n = Unix.single_write_substring fd oc.pre oc.pre_off want in
           t.stats.write_syscalls <- t.stats.write_syscalls + 1;
           t.stats.bytes_sent <- t.stats.bytes_sent + n;
           oc.pre_off <- oc.pre_off + n;
           if n < want then blocked := true
         end
         else if Ring.length oc.q > 0 then begin
           let head = Ring.peek oc.q in
           let head_rem = String.length head - oc.head_off in
           if head_rem >= Bytes.length t.wbuf || Ring.length oc.q = 1 then begin
             let want = min (min head_rem t.max_write) max_single_write in
             let n = Unix.single_write_substring fd head oc.head_off want in
             t.stats.write_syscalls <- t.stats.write_syscalls + 1;
             t.stats.bytes_sent <- t.stats.bytes_sent + n;
             queue_advance t oc n;
             if n < want then blocked := true
           end
           else begin
             let filled = gather t oc in
             let want = min (min filled t.max_write) max_single_write in
             let n = Unix.single_write fd t.wbuf 0 want in
             t.stats.write_syscalls <- t.stats.write_syscalls + 1;
             t.stats.bytes_sent <- t.stats.bytes_sent + n;
             queue_advance t oc n;
             if n < want then blocked := true
           end
         end
         else progress := false
       done
     with
    | Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
      blocked := true
    | Unix.Unix_error (_, _, _) ->
      fail_out t oc;
      progress := false);
    match oc.state with
    | Connected _ when !blocked -> Loop.watch_write t.loop fd (fun () -> try_flush t oc)
    | Connected _ -> Loop.unwatch_write t.loop fd
    | _ -> ())

and fail_out t oc =
  (match oc.state with
  | Connected fd ->
    if Loop.now_ns t.loop - oc.up_at_ns >= oc.waited_ns then oc.backoff_ns <- backoff_base_ns;
    close_fd t fd
  | Connecting fd -> close_fd t fd
  | Idle | Waiting _ -> ());
  oc.state <- Idle;
  (* A frame cut mid-write is unrecoverable: the peer's stream ended
     inside it, and a fresh connection must start on a frame boundary.
     The connection died under it, so it counts as a disconnect loss. *)
  if oc.head_off > 0 then begin
    if Ring.length oc.q > 0 then begin
      let head = Ring.pop oc.q in
      oc.q_bytes <- oc.q_bytes - String.length head
    end;
    oc.head_off <- 0;
    t.dropped_disconnected <- t.dropped_disconnected + 1
  end;
  oc.pre <- "";
  oc.pre_off <- 0;
  if not t.down then schedule_redial t oc

and schedule_redial t oc =
  t.stats.reconnects <- t.stats.reconnects + 1;
  let b = oc.backoff_ns in
  let delay_ns = (b / 2) + Random.State.int t.rng (max 1 (b / 2)) in
  oc.waited_ns <- b;
  oc.backoff_ns <- min backoff_cap_ns (b * 2);
  let h =
    Loop.schedule t.loop ~delay:(Int64.of_int delay_ns) (fun () ->
        oc.state <- Idle;
        if not t.down then connect_out t oc)
  in
  oc.state <- Waiting h

(* Flush every peer that queued frames since the last loop tick: the
   frames a whole batch of work produced coalesce into one write(2) per
   peer (see [Loop.on_tick]) instead of one per frame. *)
let flush_pending t =
  match t.flushq with
  | [] -> ()
  | ocs ->
    t.flushq <- [];
    List.iter
      (fun oc ->
        oc.flush_queued <- false;
        try_flush t oc)
      ocs

let create ~loop ~id ?obs ?(max_frame = Frame.default_max_frame)
    ?(outbuf_hwm = default_outbuf_hwm) ?pool ~on_msg () =
  let pool = match pool with Some p -> p | None -> Pool.create () in
  let t =
    { loop;
      id;
      max_frame;
      hwm = outbuf_hwm;
      on_msg;
      outs = Hashtbl.create 16;
      ins = Hashtbl.create 16;
      addrs = Hashtbl.create 16;
      listener = None;
      down = false;
      dropped_backpressure = 0;
      dropped_no_addr = 0;
      dropped_disconnected = 0;
      dropped_kinds = Array.make Core.Msg.num_kinds 0;
      fault = None;
      faulted = 0;
      max_write = max_int;
      flushq = [];
      tick = None;
      rng = Random.State.make [| 0x1e09a4d; id |];
      pool;
      scratch = Pool.acquire pool read_chunk;
      wbuf = Pool.acquire pool gather_bytes;
      stats =
        { write_syscalls = 0;
          read_syscalls = 0;
          frames_sent = 0;
          frames_recvd = 0;
          bytes_sent = 0;
          bytes_recvd = 0;
          reconnects = 0 } }
  in
  t.tick <- Some (Loop.on_tick loop (fun () -> flush_pending t));
  (match obs with
  | None -> ()
  | Some reg ->
      (* Scrape-time mirror of the per-node plain-int counters: the
         read/write hot paths keep their existing field bumps, obs costs
         nothing until someone scrapes. *)
      let labels = [ ("node", string_of_int id) ] in
      let c name help = Obs.Registry.counter reg ~help ~labels name in
      let g name help = Obs.Registry.gauge reg ~help ~labels name in
      let frames_sent = c "leopard_transport_frames_sent_total" "frames handed to the kernel" in
      let frames_recvd = c "leopard_transport_frames_recvd_total" "frames parsed" in
      let bytes_sent = c "leopard_transport_bytes_sent_total" "payload+header bytes written" in
      let bytes_recvd = c "leopard_transport_bytes_recvd_total" "bytes read" in
      let writes = c "leopard_transport_write_syscalls_total" "write(2) calls" in
      let reads = c "leopard_transport_read_syscalls_total" "read(2) calls" in
      let drop_reason reason =
        Obs.Registry.counter reg ~help:"frames dropped, by cause"
          ~labels:(("reason", reason) :: labels)
          "leopard_transport_dropped_total"
      in
      let drops_bp = drop_reason "backpressure" in
      let drops_na = drop_reason "no_addr" in
      let drops_dc = drop_reason "disconnected" in
      let drops_kind =
        List.map
          (fun k ->
            ( Core.Msg.kind_index k,
              Obs.Registry.counter reg ~help:"backpressure drops, by frame kind"
                ~labels:(("kind", Core.Msg.kind_name k) :: labels)
                "leopard_transport_dropped_kind_total" ))
          Core.Msg.all_kinds
      in
      let faulted_c = c "leopard_transport_faulted_total" "messages hit by the fault filter" in
      let reconnects = c "leopard_transport_reconnects_total" "backoff redials scheduled" in
      let live = g "leopard_transport_live_connections" "established connections, both directions" in
      let coalesce =
        g "leopard_transport_coalesce_ratio_x1000" "write syscalls per frame sent, x1000"
      in
      let queued = g "leopard_transport_queued_bytes" "frame bytes queued to all peers" in
      Obs.Registry.on_collect reg (fun () ->
          let s = t.stats in
          Obs.Counter.mirror frames_sent s.frames_sent;
          Obs.Counter.mirror frames_recvd s.frames_recvd;
          Obs.Counter.mirror bytes_sent s.bytes_sent;
          Obs.Counter.mirror bytes_recvd s.bytes_recvd;
          Obs.Counter.mirror writes s.write_syscalls;
          Obs.Counter.mirror reads s.read_syscalls;
          Obs.Counter.mirror drops_bp t.dropped_backpressure;
          Obs.Counter.mirror drops_na t.dropped_no_addr;
          Obs.Counter.mirror drops_dc t.dropped_disconnected;
          List.iter (fun (i, ctr) -> Obs.Counter.mirror ctr t.dropped_kinds.(i)) drops_kind;
          Obs.Counter.mirror faulted_c t.faulted;
          Obs.Counter.mirror reconnects s.reconnects;
          let outs_live =
            Hashtbl.fold
              (fun _ oc acc -> match oc.state with Connected _ -> acc + 1 | _ -> acc)
              t.outs 0
          in
          Obs.Gauge.set live (outs_live + Hashtbl.length t.ins);
          Obs.Gauge.set queued (Hashtbl.fold (fun _ oc acc -> acc + oc.q_bytes) t.outs 0);
          if s.frames_sent > 0 then
            Obs.Gauge.set coalesce (s.write_syscalls * 1000 / s.frames_sent)));
  t

let out_conn t dst =
  match Hashtbl.find t.outs dst with
  | oc -> oc
  | exception Not_found ->
    let oc =
      { dst;
        state = Idle;
        q = Ring.create ();
        q_bytes = 0;
        head_off = 0;
        pre = "";
        pre_off = 0;
        backoff_ns = backoff_base_ns;
        waited_ns = 0;
        up_at_ns = 0;
        flush_queued = false }
    in
    Hashtbl.add t.outs dst oc;
    oc

(* Kind-aware drop policy: bulk frames (datablocks, fetch replies —
   [Net.Nic.Low]) stop being admitted at the HWM, while
   consensus-critical frames (votes, proofs, view-change traffic —
   [Net.Nic.High]) keep a reserved headroom above it. Under overload the
   queue saturates with at most [hwm] bytes of bulk data and the
   remaining headroom is exclusively theirs, so agreement progress is
   never starved by datablock congestion — the transport-level analogue
   of §6.1's two-channel priority. *)
let consensus_headroom_factor = 2

(* Queue an already-encoded frame to one peer. The frame string may be
   shared with other peers' queues (multicast); nothing here writes into
   it. The actual write happens at the next loop tick, so frames batch. *)
let enqueue_frame t ~dst ~kind frame =
  if not t.down then begin
    let oc = out_conn t dst in
    if not (Hashtbl.mem t.addrs dst) then t.dropped_no_addr <- t.dropped_no_addr + 1
    else begin
      let limit =
        match Core.Msg.kind_priority kind with
        | Net.Nic.High -> consensus_headroom_factor * t.hwm
        | Net.Nic.Low -> t.hwm
      in
      if oc.q_bytes + String.length frame > limit then begin
        t.dropped_backpressure <- t.dropped_backpressure + 1;
        let i = Core.Msg.kind_index kind in
        t.dropped_kinds.(i) <- t.dropped_kinds.(i) + 1
      end
      else begin
        Ring.push oc.q frame;
        oc.q_bytes <- oc.q_bytes + String.length frame;
        (match oc.state with
        | Idle -> connect_out t oc
        | Connected _ | Waiting _ | Connecting _ -> ());
        if not oc.flush_queued then begin
          oc.flush_queued <- true;
          t.flushq <- oc :: t.flushq
        end
      end
    end
  end

(* Queue [frame], the encoding of [msg], to [dst] under the link-fault
   verdict for that copy. A delayed or duplicated copy reuses the frame. *)
let route t ~dst ~kind msg frame =
  match t.fault with
  | None -> enqueue_frame t ~dst ~kind frame
  | Some f -> (
    match f ~dst msg with
    | Net.Network.Pass -> enqueue_frame t ~dst ~kind frame
    | Net.Network.Drop -> t.faulted <- t.faulted + 1
    | Net.Network.Delay d ->
      t.faulted <- t.faulted + 1;
      ignore
        (Loop.schedule t.loop ~delay:d (fun () -> enqueue_frame t ~dst ~kind frame)
          : Loop.handle)
    | Net.Network.Duplicate ->
      t.faulted <- t.faulted + 1;
      enqueue_frame t ~dst ~kind frame;
      enqueue_frame t ~dst ~kind frame)

let send t ~dst msg =
  if not t.down then
    if Net.Node_id.equal dst t.id then
      (* Self-delivery through the loop, like the simulator's immediate
         local hop: asynchronous, but ahead of any network arrival. It
         never crosses a wire, so no link fault applies: the fault
         surface models partitions and lossy paths, not process faults. *)
      ignore
        (Loop.schedule t.loop ~delay:0L (fun () ->
             if not t.down then t.on_msg ~src:t.id msg))
    else route t ~dst ~kind:(Core.Msg.kind msg) msg (Frame.encode_shared msg)

let multicast t ~n msg =
  if not t.down then begin
    (* Encode once; every peer's queue references the same frame string. *)
    let frame = Frame.encode_shared msg in
    let kind = Core.Msg.kind msg in
    for dst = 0 to n - 1 do
      if not (Net.Node_id.equal dst t.id) then route t ~dst ~kind msg frame
    done
  end

(* -- incoming: accept and read ------------------------------------------ *)

exception Protocol_violation

(* A hello from [src] proves it is up: a dial to it waiting out a
   backoff (up to the 2 s cap after a long outage) goes now instead. *)
let dial_now t src =
  match Hashtbl.find_opt t.outs src with
  | Some ({ state = Waiting h; _ } as oc) when not t.down ->
    Loop.cancel t.loop h;
    oc.state <- Idle;
    connect_out t oc
  | _ -> ()

let handle_frame t ic frame =
  t.stats.frames_recvd <- t.stats.frames_recvd + 1;
  match (ic.src, frame) with
  | None, Frame.Hello src ->
    ic.src <- Some src;
    dial_now t src
  | Some src, Frame.Msg m -> if not t.down then t.on_msg ~src m
  | None, Frame.Msg _ | Some _, Frame.Hello _ -> raise Protocol_violation

(* read(2) lands in the node's scratch and complete frames decode in
   place from it; only a frame cut by the read's end is copied, into a
   buffer its reader holds until the frame completes. *)
let read_in t ic =
  match Unix.read ic.in_fd t.scratch 0 (Bytes.length t.scratch) with
  | 0 -> close_in t ic
  | n -> (
    t.stats.read_syscalls <- t.stats.read_syscalls + 1;
    t.stats.bytes_recvd <- t.stats.bytes_recvd + n;
    match Frame.feed ic.reader t.scratch ~off:0 ~len:n (handle_frame t ic) with
    | Ok () -> ()
    | Error _ -> close_in t ic
    | exception Protocol_violation -> close_in t ic)
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> close_in t ic

let accept_ready t lfd =
  let continue = ref true in
  while !continue do
    match Unix.accept lfd with
    | fd, _addr ->
      if t.down then (try Unix.close fd with Unix.Unix_error _ -> ())
      else begin
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        let ic =
          { in_fd = fd;
            reader = Frame.reader ~max_frame:t.max_frame ~pool:t.pool ();
            src = None }
        in
        Hashtbl.add t.ins fd ic;
        Loop.watch_read t.loop fd (fun () -> read_in t ic)
      end
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
      continue := false
    | exception Unix.Unix_error (_, _, _) -> continue := false
  done

let listen t ?(port = 0) () =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.set_nonblock lfd;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen lfd 64;
  t.listener <- Some lfd;
  Loop.watch_read t.loop lfd (fun () -> accept_ready t lfd);
  match Unix.getsockname lfd with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> assert false

(* -- lifecycle ---------------------------------------------------------- *)

let set_down t down =
  if down <> t.down then begin
    t.down <- down;
    if down then begin
      Hashtbl.iter
        (fun _ ic ->
          Frame.release ic.reader;
          close_fd t ic.in_fd)
        t.ins;
      Hashtbl.reset t.ins;
      Hashtbl.iter
        (fun _ oc ->
          reset_out t oc;
          drop_queue t oc;
          oc.backoff_ns <- backoff_base_ns)
        t.outs
    end
    (* On revival nothing is dialed eagerly: the node's own traffic and
       the peers' backoff timers re-establish connectivity. *)
  end

let live_connections t =
  let outs =
    Hashtbl.fold
      (fun _ oc acc -> match oc.state with Connected _ -> acc + 1 | _ -> acc)
      t.outs 0
  in
  outs + Hashtbl.length t.ins

let close t =
  (* Deregister the flush hook first: a closed conn must not be kept
     alive (or ticked) by the loop for the rest of the loop's life. *)
  (match t.tick with
  | Some h ->
    Loop.remove_tick t.loop h;
    t.tick <- None
  | None -> ());
  t.flushq <- [];
  Hashtbl.iter
    (fun _ ic ->
      Frame.release ic.reader;
      close_fd t ic.in_fd)
    t.ins;
  Hashtbl.reset t.ins;
  Hashtbl.iter (fun _ oc -> reset_out t oc) t.outs;
  Hashtbl.reset t.outs;
  (match t.listener with
  | Some lfd ->
    close_fd t lfd;
    t.listener <- None
  | None -> ());
  Pool.release t.pool t.scratch;
  Pool.release t.pool t.wbuf;
  t.down <- true

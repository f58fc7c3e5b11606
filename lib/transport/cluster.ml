type t = {
  loop : Loop.t;
  cfg : Core.Config.t;
  nodes : Runtime.node array;
  (* replicas, f+1 accounting, re-sends, safety check, restart *)
  driver : Core.Driver.t;
  trace : Sim.Trace.t;
  (* open-loop client *)
  load : float;
  mutable load_active : bool;
  mutable offered : int;
  mutable next_batch_id : int;
  mutable carry : float; (* fractional requests owed from past ticks *)
  mutable last_tick_ns : int;
  mutable rr : int;
  (* closed-loop arm of the hybrid client (inert while the overload
     controls are off, i.e. [mempool_cap = 0]): admission rejections re-credit [carry] and put the target
     on a retry-after cooldown; saturated targets are skipped. *)
  mutable rejected : int;  (* requests refused at replica admission *)
  mutable throttled : int; (* target-ticks skipped for egress pressure *)
  retry_after : int array; (* per-target: earliest ns to submit again *)
  mutable load_started_ns : int;
  mutable load_stopped_ns : int;
  (* verification pool (None = inline verification on the loop thread) *)
  verify_pool : Exec.Pool.t option;
  (* per-iteration loop hooks (verify drain, WAL flush, metrics dump),
     removed first thing in [close] *)
  mutable ticks : Loop.tick_handle list;
  (* durable state: one WAL directory per node under [data_dir]. The
     cells hold the live file handles — [restart_replica] crashes the old
     handle and installs a fresh one, and the sinks threaded into the
     node platforms dereference the cell on every call, so a recovered
     replica writes to the new handle through the same platform value. *)
  stores : Store.Store_file.t ref array;
  data_dir : string;
  keep_data : bool;
  fsync : Store.Wal.fsync_policy;
  mutable closed : bool;
  (* observability: registry shared by every layer of this cluster and
     the periodic file dump *)
  obs : Obs.Registry.t option;
  metrics_out : string option;
  metrics_interval_ns : int;
  mutable last_dump_ns : int;
}

let loop t = t.loop
let driver t = t.driver
let replicas t = Core.Driver.replicas t.driver
let nodes t = t.nodes
let offered t = t.offered
let confirmed t = Core.Driver.confirmed t.driver
let rejected t = t.rejected

(* -- client ------------------------------------------------------------- *)

let client_tick_ns = 10_000_000 (* 10 ms *)

(* Hybrid-client tuning: a rejected target sits out [retry_after_ns];
   re-credited requests bank at most [carry_bucket_sec] seconds of load
   (token-bucket depth), so a long rejection streak cannot store an
   unbounded burst to release at once. *)
let retry_after_ns = 100_000_000 (* 100 ms *)
let carry_bucket_sec = 0.5

(* The closed-loop behaviours only engage when the replicas are actually
   configured with overload controls; otherwise the client stays the
   seed's pure open loop. *)
let overload_controls_on t = t.cfg.Core.Config.mempool_cap > 0

let client_targets t =
  let l = Core.Config.leader_of_view t.cfg 1 in
  (* The leader is skipped to keep its NIC free for proposals — unless
     the leader-generates ablation is on, in which case it packs
     datablocks like everyone else and needs requests to pack. *)
  let skip_leader = not t.cfg.Core.Config.leader_generates_datablocks in
  List.filter
    (fun id ->
      ((not skip_leader) || not (Net.Node_id.equal id l))
      && not (Conn.is_down (Runtime.conn t.nodes.(id))))
    (List.init t.cfg.Core.Config.n Fun.id)

let offer_batch t ~target ~count =
  let b =
    Workload.Request.make ~id:t.next_batch_id ~count
      ~size_each:t.cfg.Core.Config.payload ~born:(Loop.now t.loop) ()
  in
  t.next_batch_id <- t.next_batch_id + 1;
  match Core.Replica.submit (replicas t).(target) b with
  | Core.Replica.Admitted ->
    t.offered <- t.offered + count;
    Core.Driver.offer t.driver b
  | Core.Replica.Rejected _ ->
    (* Closed-loop: the requests were never accepted, so they go back
       into [carry] (bounded to the token-bucket depth) to be re-offered
       on a later tick, and the target sits out a retry-after window. *)
    t.rejected <- t.rejected + count;
    t.carry <- Float.min (t.carry +. float_of_int count) (t.load *. carry_bucket_sec);
    t.retry_after.(target) <- Loop.now_ns t.loop + retry_after_ns

(* Targets the hybrid client will actually submit to this tick: up,
   non-leader, past any retry-after cooldown, and (when the overload
   controls are on) under egress-pressure saturation. *)
let eligible_targets t now_ns =
  let controls = overload_controls_on t in
  List.filter
    (fun id ->
      if now_ns < t.retry_after.(id) then false
      else if controls && Conn.pressure (Runtime.conn t.nodes.(id)) >= 1.0 then begin
        t.throttled <- t.throttled + 1;
        false
      end
      else true)
    (client_targets t)

let rec client_tick t =
  if t.load_active then begin
    let now_ns = Loop.now_ns t.loop in
    let dt = float_of_int (now_ns - t.last_tick_ns) *. 1e-9 in
    t.last_tick_ns <- now_ns;
    t.carry <- t.carry +. (t.load *. dt);
    (* With the closed loop engaged the carry is a token bucket, not an
       unbounded debt: requests owed past the bucket depth are shed. *)
    if overload_controls_on t then
      t.carry <- Float.min t.carry (t.load *. carry_bucket_sec);
    let due = int_of_float t.carry in
    t.carry <- t.carry -. float_of_int due;
    (match eligible_targets t now_ns with
    | [] -> () (* everyone down; requests owed stay in [carry]'s past *)
    | targets ->
      let targets = Array.of_list targets in
      let m = Array.length targets in
      let per = due / m and extra = due mod m in
      for i = 0 to m - 1 do
        (* rotate who gets the remainder so the load stays even *)
        let count = per + (if (i + t.rr) mod m < extra then 1 else 0) in
        if count > 0 then offer_batch t ~target:targets.(i) ~count
      done;
      t.rr <- t.rr + 1);
    ignore
      (Loop.schedule t.loop ~delay:(Int64.of_int client_tick_ns) (fun () ->
           client_tick t)
        : Loop.handle)
  end

let start_load t =
  if not t.load_active then begin
    t.load_active <- true;
    t.last_tick_ns <- Loop.now_ns t.loop;
    t.load_started_ns <- t.last_tick_ns;
    t.carry <- 0.;
    client_tick t
  end

let stop_load t =
  if t.load_active then begin
    t.load_active <- false;
    t.load_stopped_ns <- Loop.now_ns t.loop
  end

(* -- construction ------------------------------------------------------- *)

let temp_counter = ref 0

let fresh_data_dir () =
  incr temp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "leopard-data.%d.%d" (Unix.getpid ()) !temp_counter)

let node_dir data_dir id = Filename.concat data_dir (Printf.sprintf "node-%d" id)

let create ~cfg ?(load = 2000.) ?outbuf_hwm ?(trace = Sim.Trace.create ~enabled:false ())
    ?(byzantine = []) ?client_resend ?verify_domains ?data_dir
    ?(fsync = Store.Wal.Never) ?store_wrap ?obs ?metrics_out
    ?(metrics_interval_ns = 1_000_000_000) () =
  (* A dump target without a registry implies one. *)
  let obs =
    match (obs, metrics_out) with
    | (Some _ as o), _ -> o
    | None, Some _ -> Some (Obs.Registry.create ())
    | None, None -> None
  in
  let n = cfg.Core.Config.n in
  let loop = Loop.create () in
  (* An explicit data dir is the caller's (kept at teardown, e.g. as a
     failure artifact); an automatic one is a per-run temp dir removed by
     [close]. *)
  let data_dir, keep_data =
    match data_dir with Some d -> (d, true) | None -> (fresh_data_dir (), false)
  in
  let now_ns () = Loop.now_ns loop in
  let stores =
    Array.init n (fun id ->
        ref (Store.Store_file.create ?obs ~fsync ~now_ns ~dir:(node_dir data_dir id) ()))
  in
  let store_sink id =
    let cell = stores.(id) in
    let base =
      Core.Store.
        { enabled = true;
          log = (fun r -> Store.Store_file.log !cell r);
          save = (fun s -> Store.Store_file.save !cell s);
          load = (fun () -> Store.Store_file.load !cell);
          sync = (fun () -> Store.Store_file.sync !cell) }
    in
    match store_wrap with None -> base | Some w -> w id base
  in
  (* One buffer pool for the whole in-process cluster: a redialing node
     reuses buffers any node released. *)
  let pool = Pool.create () in
  (* Verification pool: ON by default (that is the point of the TCP
     plane — real parallel crypto), sized to leave one core for the
     event loop. [Some 0] disables it (bench baseline); on a small host
     the default degenerates to one worker, still keeping crypto off the
     loop thread. One pool for the in-process cluster: workers only
     run pure crypto, so sharing is safe and bounds the domain count. *)
  let verify_pool =
    match verify_domains with
    | Some 0 -> None
    | Some d -> Some (Exec.Pool.create ?obs ~domains:d ())
    | None ->
      Some
        (Exec.Pool.create ?obs
           ~domains:(max 1 (min 4 (Domain.recommended_domain_count () - 1)))
           ())
  in
  let verify =
    match verify_pool with
    | None -> Core.Verify.inline
    | Some p -> Core.Verify.pooled p
  in
  let nodes =
    Array.init n (fun id ->
        Runtime.node ~loop ~id ~n ?obs ?outbuf_hwm ~pool ~verify ~store:(store_sink id) ())
  in
  let ports = Array.map (fun node -> Runtime.listen node ()) nodes in
  Array.iteri
    (fun id node ->
      for dst = 0 to n - 1 do
        if dst <> id then
          Runtime.set_peer_addr node dst
            (Unix.ADDR_INET (Unix.inet_addr_loopback, ports.(dst)))
      done)
    nodes;
  let driver =
    Core.Driver.create ~cfg ~key_rng:(Sim.Rng.create 42L)
      ~platform:(fun id -> Runtime.platform nodes.(id))
      ~now:(fun () -> Loop.now loop)
      ~schedule:(fun ~delay f -> ignore (Loop.schedule loop ~delay f : Loop.handle))
      ~deliver:(fun ~dst ~size:_ k ->
        (* a message to a downed process is lost *)
        if not (Conn.is_down (Runtime.conn nodes.(dst))) then k ())
      ~byzantine ~resend:client_resend ~trace ?obs ()
  in
  let t =
    { loop;
      cfg;
      nodes;
      driver;
      trace;
      load;
      load_active = false;
      offered = 0;
      next_batch_id = 0;
      carry = 0.;
      last_tick_ns = 0;
      rr = 0;
      rejected = 0;
      throttled = 0;
      retry_after = Array.make n 0;
      load_started_ns = 0;
      load_stopped_ns = 0;
      verify_pool;
      ticks = [];
      stores;
      data_dir;
      keep_data;
      fsync;
      closed = false;
      obs;
      metrics_out;
      metrics_interval_ns;
      last_dump_ns = 0 }
  in
  (* Cluster-level client/consensus aggregates, refreshed at scrape. *)
  (match obs with
  | None -> ()
  | Some reg ->
    let offered_c =
      Obs.Registry.counter reg ~help:"client requests offered" "leopard_cluster_offered_total"
    in
    let resends_c =
      Obs.Registry.counter reg ~help:"client re-send copies" "leopard_cluster_resends_total"
    in
    let rejected_c =
      Obs.Registry.counter reg ~help:"client requests refused at replica admission"
        "leopard_cluster_rejected_total"
    in
    let throttled_c =
      Obs.Registry.counter reg ~help:"client target-ticks skipped for egress pressure"
        "leopard_cluster_throttled_total"
    in
    let blocks_c =
      Obs.Registry.counter reg ~help:"blocks f+1-executed" "leopard_cluster_executed_blocks_total"
    in
    let max_view_g =
      Obs.Registry.gauge reg ~help:"highest view of any honest replica"
        "leopard_cluster_max_view"
    in
    Obs.Registry.on_collect reg (fun () ->
        Obs.Counter.mirror offered_c t.offered;
        Obs.Counter.mirror resends_c (Core.Driver.resends driver);
        Obs.Counter.mirror rejected_c t.rejected;
        Obs.Counter.mirror throttled_c t.throttled;
        Obs.Counter.mirror blocks_c (Core.Driver.executed_blocks driver);
        Obs.Gauge.set max_view_g (Core.Driver.final_view driver)));
  (* Periodic exposition dump: checked once per loop iteration, written
     at most once per [metrics_interval_ns] (atomic tmp+rename, so a
     tail-ing reader never sees a torn dump). *)
  let on_tick f = t.ticks <- Loop.on_tick loop f :: t.ticks in
  (match (obs, metrics_out) with
  | Some reg, Some path ->
    t.last_dump_ns <- Loop.now_ns loop;
    on_tick (fun () ->
        let now = Loop.now_ns loop in
        if now - t.last_dump_ns >= t.metrics_interval_ns then begin
          t.last_dump_ns <- now;
          try Obs.Registry.dump_file reg path with Sys_error _ -> ()
        end)
  | _ -> ());
  (* Group commit: buffered WAL records hit the files once per loop
     iteration (and fsync per the policy), not once per append. *)
  on_tick (fun () -> Array.iter (fun c -> Store.Store_file.flush !c) stores);
  (match verify_pool with
   | None -> ()
   | Some p ->
     (* Completions are delivered on the loop thread: every dispatch
        round starts with a drain ([on_tick] registered after the Conn
        flush ticks runs before them — newest first), and the pool's
        notify pipe wakes the loop the moment a result lands, so verified
        messages never wait out the poll timeout. *)
     let drain () = ignore (Exec.Pool.drain p : int) in
     on_tick drain;
     Loop.watch_read loop (Exec.Pool.notify_fd p) drain);
  Core.Driver.arm_resends driver ();
  t

let set_replica_down t id down =
  Runtime.set_down t.nodes.(id) down;
  Sim.Trace.recordf t.trace ~at:(Loop.now t.loop)
    ~tag:(if down then "cluster.kill" else "cluster.revive")
    "%a" Net.Node_id.pp id

(* Process restart: the replica value dies with whatever state was only
   in memory (including the store's un-flushed buffer — [crash] drops
   it), and [Core.Driver.restart] rebuilds the replica from the node's WAL
   directory. The replacement takes over the same [Runtime]
   node: its [set_handler] overwrites the delivery cell, and the
   cell-indirect store sink starts hitting the fresh file handle. *)
let restart_replica t id =
  Store.Store_file.crash !(t.stores.(id));
  t.stores.(id) :=
    Store.Store_file.create ?obs:t.obs ~fsync:t.fsync
      ~now_ns:(fun () -> Loop.now_ns t.loop)
      ~dir:(node_dir t.data_dir id) ();
  Core.Driver.restart t.driver id ~platform:(Runtime.platform t.nodes.(id));
  Sim.Trace.recordf t.trace ~at:(Loop.now t.loop) ~tag:"cluster.restart" "%a" Net.Node_id.pp
    id

let set_fault_filter t id f = Conn.set_fault (Runtime.conn t.nodes.(id)) f

(* Cluster-wide data-plane counters: per-node [Conn.stats] summed. *)
let transport_stats t =
  let stats = Array.map (fun node -> Conn.stats (Runtime.conn node)) t.nodes in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 stats in
  Conn.
    { write_syscalls = sum (fun s -> s.write_syscalls);
      read_syscalls = sum (fun s -> s.read_syscalls);
      frames_sent = sum (fun s -> s.frames_sent);
      frames_recvd = sum (fun s -> s.frames_recvd);
      bytes_sent = sum (fun s -> s.bytes_sent);
      bytes_recvd = sum (fun s -> s.bytes_recvd);
      reconnects = sum (fun s -> s.reconnects) }

let run_while t pred = Loop.run_while t.loop (fun () -> pred t)

let up_ids t =
  List.filter
    (fun id -> not (Conn.is_down (Runtime.conn t.nodes.(id))))
    (List.init t.cfg.Core.Config.n Fun.id)

let state_converged t =
  match up_ids t with
  | [] -> true
  | first :: rest ->
    let replicas = replicas t in
    let reference = replicas.(first) in
    let exec = Core.Ledger.executed_up_to (Core.Replica.ledger reference) in
    let hash = Core.Replica.state_hash reference in
    List.for_all
      (fun id ->
        let r = replicas.(id) in
        Core.Ledger.executed_up_to (Core.Replica.ledger r) = exec
        && Crypto.Hash.equal (Core.Replica.state_hash r) hash)
      rest

let close t =
  if not t.closed then begin
    t.closed <- true;
    stop_load t;
    (* Final dump before teardown: the run's last word, whatever the
       periodic interval left unwritten. *)
    (match (t.obs, t.metrics_out) with
    | Some reg, Some path -> (
      try Obs.Registry.dump_file reg path with Sys_error _ -> ())
    | _ -> ());
    (* Unhook the ticks before what they touch goes away: the pool's
       pipe fds, the WAL handles. *)
    List.iter (Loop.remove_tick t.loop) t.ticks;
    t.ticks <- [];
    Loop.stop t.loop;
    (* Unwatch the pool's notify fd before shutdown closes it (see
       {!Loop.watch_read} on closing watched fds), then join the
       worker domains. Un-drained continuations are dropped — the
       replicas they would touch are being torn down anyway. *)
    (match t.verify_pool with
     | None -> ()
     | Some p ->
       Loop.unwatch t.loop (Exec.Pool.notify_fd p);
       Exec.Pool.shutdown p);
    Array.iter (fun node -> Conn.close (Runtime.conn node)) t.nodes;
    Array.iter (fun c -> Store.Store_file.close !c) t.stores;
    (* Auto (temp) data dirs leave nothing behind; explicit ones are the
       caller's artifacts. *)
    if not t.keep_data then Store.Store_file.remove_dir t.data_dir
  end

(* -- one-shot runs ------------------------------------------------------ *)

type report = {
  n : int;
  offered : int;
  confirmed : int;
  rejected : int;
  throughput : float;
  latency : Obs.Histogram.snapshot;
  executed_blocks : int;
  wall_sec : float;
  dropped_frames : int;
  transport : Conn.stats; (* data-plane counters summed over nodes *)
  state_hashes : (Net.Node_id.t * Crypto.Hash.t) list;
  converged : bool;
  ledgers_agree : bool;
}

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>local cluster: n=%d@,\
     offered        %d@,\
     confirmed      %d@,\
     rejected       %d@,\
     throughput     %.0f req/s@,\
     latency p50    %.1f ms@,\
     latency p99    %.1f ms@,\
     executed blks  %d@,\
     load window    %.2f s@,\
     dropped frames %d@,\
     frames sent    %d (%.3f write syscalls/frame)@,\
     frames recvd   %d (%.3f read syscalls/frame)@,\
     bytes moved    %d out / %d in@,\
     converged      %b@,\
     ledgers agree  %b@]"
    r.n r.offered r.confirmed r.rejected r.throughput
    (Obs.Histogram.Snapshot.quantile r.latency 0.50 /. 1e6)
    (Obs.Histogram.Snapshot.quantile r.latency 0.99 /. 1e6)
    r.executed_blocks r.wall_sec r.dropped_frames r.transport.Conn.frames_sent
    (let f = r.transport.Conn.frames_sent in
     if f = 0 then 0.
     else float_of_int r.transport.Conn.write_syscalls /. float_of_int f)
    r.transport.Conn.frames_recvd
    (let f = r.transport.Conn.frames_recvd in
     if f = 0 then 0.
     else float_of_int r.transport.Conn.read_syscalls /. float_of_int f)
    r.transport.Conn.bytes_sent r.transport.Conn.bytes_recvd r.converged r.ledgers_agree

let report_of t =
  let window_ns =
    (if t.load_stopped_ns > t.load_started_ns then t.load_stopped_ns
     else Loop.now_ns t.loop)
    - t.load_started_ns
  in
  let wall_sec = float_of_int (max 1 window_ns) *. 1e-9 in
  let confirmed = confirmed t in
  { n = t.cfg.Core.Config.n;
    offered = t.offered;
    confirmed;
    rejected = t.rejected;
    throughput = float_of_int confirmed /. wall_sec;
    latency = Core.Driver.latency t.driver;
    executed_blocks = Core.Driver.executed_blocks t.driver;
    wall_sec;
    dropped_frames =
      Array.fold_left (fun acc node -> acc + Conn.dropped (Runtime.conn node)) 0 t.nodes;
    transport = transport_stats t;
    state_hashes =
      Array.to_list (Array.mapi (fun id r -> (id, Core.Replica.state_hash r)) (replicas t));
    converged = state_converged t;
    ledgers_agree = Core.Driver.ledgers_agree t.driver }

let run ~cfg ?load ?(duration = Sim.Sim_time.s 5) ?(drain = Sim.Sim_time.s 10)
    ?min_confirmed ?kill ?trace ?verify_domains ?data_dir ?fsync ?obs ?metrics_out
    ?metrics_interval_ns () =
  let t =
    create ~cfg ?load ?trace ?verify_domains ?data_dir ?fsync ?obs ?metrics_out
      ?metrics_interval_ns ()
  in
  (* [close] on every exit path, normal or not: an exception mid-run must
     not leak n listeners plus O(n^2) connection fds into the process
     (repeated in-process runs — the chaos corpus — would exhaust the fd
     table). [close] is idempotent, so the normal path costs nothing. *)
  Fun.protect
    ~finally:(fun () -> close t)
    (fun () ->
      (match kill with
      | None -> ()
      | Some (id, at, revive) ->
        ignore
          (Loop.schedule t.loop ~delay:at (fun () -> set_replica_down t id true)
            : Loop.handle);
        (match revive with
        | None -> ()
        | Some at' ->
          ignore
            (Loop.schedule t.loop ~delay:at' (fun () -> set_replica_down t id false)
              : Loop.handle)));
      start_load t;
      let deadline = Loop.now_ns t.loop + Int64.to_int duration in
      run_while t (fun t ->
          Loop.now_ns t.loop < deadline
          && match min_confirmed with Some m -> confirmed t < m | None -> true);
      stop_load t;
      (* Drain: let in-flight serials finish and laggards catch up so the
         state hashes can be compared at a common execution frontier. *)
      let drain_deadline = Loop.now_ns t.loop + Int64.to_int drain in
      run_while t (fun t ->
          Loop.now_ns t.loop < drain_deadline && not (state_converged t));
      report_of t)

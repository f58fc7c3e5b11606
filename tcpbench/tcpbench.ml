(* End-to-end benchmark of the real TCP plane.

   Builds an n-replica loopback cluster from the same public pieces that
   [Transport.Cluster.create] wires together (one [Transport.Runtime.node]
   per replica, [Core.Replica.create], one [Exec.Pool] drained by a loop
   tick and its notify fd, one [Store.Store_file] per replica flushed on
   every tick), drives it with a seeded client on the loop thread that
   submits exactly one request per [Core.Replica.submit], and measures
   from outside: f+1 confirmations through the replica hooks, CPU from
   [Unix.times] and /proc, and, in the traced run only, time spent in
   every call that crosses a public seam (the [Core.Platform.t] fields,
   [Core.Replica.submit], the hooks, the pool drain and the store flush).

   One workload per process. The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. See README.md for the
   workloads, the metric -> layer map and the known limits. *)

module Loop = Transport.Loop
module Runtime = Transport.Runtime
module Conn = Transport.Conn

let mono_ns () = Int64.to_int (Monotonic_clock.now ())

(* -- growable int vectors ------------------------------------------------ *)

module Vec = struct
  type t = { mutable a : int array; mutable len : int; cap : int }

  let create ?(cap = max_int) n = { a = Array.make (max 16 n) 0; len = 0; cap }

  let grow v need =
    if need > Array.length v.a then begin
      let b = Array.make (max need (2 * Array.length v.a)) 0 in
      Array.blit v.a 0 b 0 v.len;
      v.a <- b
    end

  (* Samples past [cap] are dropped: sample memory stays bounded. *)
  let push v x =
    if v.len < v.cap then begin
      grow v (v.len + 1);
      v.a.(v.len) <- x;
      v.len <- v.len + 1
    end

  let set v i x =
    grow v (i + 1);
    v.a.(i) <- x;
    if i >= v.len then v.len <- i + 1

  let get v i = if i < v.len then v.a.(i) else 0

  let sorted v =
    let s = Array.sub v.a 0 v.len in
    Array.sort compare s;
    s
end

(* Exact nearest-rank quantile of raw samples. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* -- tracing ------------------------------------------------------------- *)

(* Span layers: one per wrapped seam. *)
let l_handler = 0
let l_send = 1
let l_multicast = 2
let l_timer = 3
let l_task = 4
let l_verify_dispatch = 5
let l_verify_cont = 6
let l_verify_drain = 7
let l_store_log = 8
let l_store_flush = 9
let l_submit = 10
let l_hook = 11
let l_client = 12
let l_store_save = 13

let layer_names =
  [| "handler"; "send"; "multicast"; "timer"; "task"; "verify.dispatch"; "verify.cont";
     "verify.drain"; "store.log"; "store.flush"; "submit"; "hook"; "client"; "store.save" |]

let num_layers = Array.length layer_names
let max_depth = 64

(* Spans live in preallocated arrays (one row per wrapped call: layer,
   start, end, parent row) and are written out at exit; a run that
   outgrows them keeps its aggregates and counts the lost rows. Self time
   is accumulated online: a span's duration minus its children's. *)
module Tracer = struct
  type t = {
    cap : int;
    sp_layer : int array;
    sp_start : int array;
    sp_end : int array;
    sp_parent : int array;
    mutable spans : int;
    mutable lost : int;
    st_span : int array;
    st_start : int array;
    st_child : int array;
    st_layer : int array;
    st_tag : int array;
    mutable depth : int;
    self_ns : int array;
    total_ns : int array;
    calls : int array;
    kind_self_ns : int array;
    kind_calls : int array;
    mutable top_ns : int; (* wall time inside outermost wrapped calls *)
  }

  let create ~cap =
    { cap;
      sp_layer = Array.make cap 0;
      sp_start = Array.make cap 0;
      sp_end = Array.make cap 0;
      sp_parent = Array.make cap 0;
      spans = 0;
      lost = 0;
      st_span = Array.make max_depth 0;
      st_start = Array.make max_depth 0;
      st_child = Array.make max_depth 0;
      st_layer = Array.make max_depth 0;
      st_tag = Array.make max_depth 0;
      depth = 0;
      self_ns = Array.make num_layers 0;
      total_ns = Array.make num_layers 0;
      calls = Array.make num_layers 0;
      kind_self_ns = Array.make Core.Msg.num_kinds 0;
      kind_calls = Array.make Core.Msg.num_kinds 0;
      top_ns = 0 }

  let reset t =
    t.spans <- 0;
    t.lost <- 0;
    List.iter
      (fun a -> Array.fill a 0 (Array.length a) 0)
      [ t.self_ns; t.total_ns; t.calls; t.kind_self_ns; t.kind_calls ];
    t.top_ns <- 0

  let enter t layer tag =
    let d = t.depth in
    if d >= max_depth then failwith "tracer: span stack overflow";
    let now = mono_ns () in
    let row =
      if t.spans < t.cap then begin
        let i = t.spans in
        t.spans <- i + 1;
        t.sp_layer.(i) <- layer;
        t.sp_start.(i) <- now;
        t.sp_parent.(i) <- (if d = 0 then -1 else t.st_span.(d - 1));
        i
      end
      else begin
        t.lost <- t.lost + 1;
        -1
      end
    in
    t.st_span.(d) <- row;
    t.st_start.(d) <- now;
    t.st_child.(d) <- 0;
    t.st_layer.(d) <- layer;
    t.st_tag.(d) <- tag;
    t.depth <- d + 1

  let leave t =
    let d = t.depth - 1 in
    t.depth <- d;
    let now = mono_ns () in
    let dur = now - t.st_start.(d) in
    let self = dur - t.st_child.(d) in
    let l = t.st_layer.(d) in
    t.self_ns.(l) <- t.self_ns.(l) + self;
    t.total_ns.(l) <- t.total_ns.(l) + dur;
    t.calls.(l) <- t.calls.(l) + 1;
    if l = l_handler then begin
      let k = t.st_tag.(d) in
      t.kind_self_ns.(k) <- t.kind_self_ns.(k) + self;
      t.kind_calls.(k) <- t.kind_calls.(k) + 1
    end;
    let row = t.st_span.(d) in
    if row >= 0 then t.sp_end.(row) <- now;
    if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur
    else t.top_ns <- t.top_ns + dur

  let span t layer tag f =
    enter t layer tag;
    match f () with
    | v ->
      leave t;
      v
    | exception e ->
      leave t;
      raise e

  (* Binary dump: a text header line, then per span four little-endian
     int64s (layer, start ns, end ns, parent row or -1). *)
  let write t path =
    let oc = open_out_bin path in
    Printf.fprintf oc "tcpbench-spans v1 layers=%s spans=%d lost=%d\n"
      (String.concat "," (Array.to_list layer_names))
      t.spans t.lost;
    let b = Bytes.create 32 in
    for i = 0 to t.spans - 1 do
      Bytes.set_int64_le b 0 (Int64.of_int t.sp_layer.(i));
      Bytes.set_int64_le b 8 (Int64.of_int t.sp_start.(i));
      Bytes.set_int64_le b 16 (Int64.of_int t.sp_end.(i));
      Bytes.set_int64_le b 24 (Int64.of_int t.sp_parent.(i));
      output_bytes oc b
    done;
    close_out oc
end

let traced tr layer tag f =
  match tr with None -> f () | Some t -> Tracer.span t layer tag f

(* -- workloads ----------------------------------------------------------- *)

type workload = {
  name : string;
  n : int;
  closed_k : int option; (* Some k: closed loop with k outstanding *)
  rate : float; (* open loop: Poisson arrivals per second *)
  crash : bool; (* fail-stop the view-1 leader inside the window *)
}

(* K for saturate-n16: doubling it moved confirmed_rps by less than the
   metric's bound (README.md, "Saturation check"). *)
let saturate_k = 4000

(* BENCHMARK.json runs the two leader-crash workloads. saturate-n16 and
   paced-n4 run by hand: their capacity and fault-free tail latency follow
   the host's CPU steal (README.md, "Steadiness on a shared host"). *)
let workloads =
  [ { name = "saturate-n16"; n = 16; closed_k = Some saturate_k; rate = 0.; crash = false };
    { name = "paced-n4"; n = 4; closed_k = None; rate = 1000.; crash = false };
    { name = "leader-crash-n4"; n = 4; closed_k = None; rate = 1000.; crash = true };
    { name = "leader-crash-n7"; n = 7; closed_k = None; rate = 1000.; crash = true } ]

(* The [leopard_cli local-cluster] defaults; the crash workloads take the
   chaos corpus's TCP-plane view timeout. *)
let cfg_of w =
  Core.Config.make ~n:w.n ~alpha:100 ~bft_size:10 ~payload:128
    ~datablock_timeout:(Sim.Sim_time.ms 20) ~proposal_timeout:(Sim.Sim_time.ms 20)
    ?view_timeout:(if w.crash then Some (Sim.Sim_time.ms 1500) else None)
    ()

let resend_period_ns = 500_000_000

(* -- f+1 accounting ------------------------------------------------------ *)

type acct = {
  f1 : int;
  tr : Tracer.t option;
  exec_counts : (int, int) Hashtbl.t; (* serial -> replicas that executed it *)
  born : Vec.t; (* request id -> due (open loop) or send (closed loop), ns *)
  confirmed_at : Vec.t; (* request id -> f+1 instant, 0 while unconfirmed *)
  mutable issued : int;
  mutable confirmed : int;
  mutable duplicates : int; (* ids seen again in a later f+1-executed serial *)
  resent : Vec.t; (* request id -> 1 once the client has re-sent it *)
  mutable unsent_duplicates : int; (* duplicates of ids never re-sent *)
  mutable on_confirm : int -> unit;
  (* window-only tallies *)
  mutable in_window : bool;
  mutable w0 : int;
  mutable last_confirm : int;
  slice_confirms : Vec.t; (* per half-second slice of the window *)
  slice_gap : Vec.t; (* longest gap between confirmations, per slice *)
  mutable blocks : int;
  mutable datablocks : int;
  mutable db_requests : int;
  mutable view_changes : int;
  (* leader crash *)
  mutable crash_at : int;
  mutable crashed : int;
  mutable first_post_crash_confirm : int;
  mutable first_new_propose : int;
  (* traced request stages *)
  propose_at : (int, int) Hashtbl.t;
  first_exec : (int, int) Hashtbl.t;
  st_disseminate : Vec.t;
  st_agree : Vec.t;
  st_confirm : Vec.t;
}

let sample_cap = 2_000_000

let acct_create ~f1 ~tr =
  { f1;
    tr;
    exec_counts = Hashtbl.create 1024;
    born = Vec.create 65536;
    confirmed_at = Vec.create 65536;
    issued = 0;
    confirmed = 0;
    duplicates = 0;
    resent = Vec.create 1024;
    unsent_duplicates = 0;
    on_confirm = ignore;
    in_window = false;
    w0 = 0;
    last_confirm = 0;
    slice_confirms = Vec.create 64;
    slice_gap = Vec.create 64;
    blocks = 0;
    datablocks = 0;
    db_requests = 0;
    view_changes = 0;
    crash_at = 0;
    crashed = -1;
    first_post_crash_confirm = 0;
    first_new_propose = 0;
    propose_at = Hashtbl.create 1024;
    first_exec = Hashtbl.create 1024;
    st_disseminate = Vec.create ~cap:sample_cap 1024;
    st_agree = Vec.create ~cap:sample_cap 1024;
    st_confirm = Vec.create ~cap:sample_cap 1024 }

let slice_ns = 500_000_000

(* A gap counts in the slice where it ends. *)
let close_gap a now =
  let i = (now - a.w0) / slice_ns in
  Vec.set a.slice_gap i (max (Vec.get a.slice_gap i) (now - a.last_confirm));
  a.last_confirm <- now

let on_f1 a ~sn (dbs : Core.Datablock.t list) =
  let now = mono_ns () in
  if a.in_window then begin
    close_gap a now;
    a.blocks <- a.blocks + 1
  end;
  let stages = a.tr <> None && a.in_window in
  let proposed = if stages then Hashtbl.find_opt a.propose_at sn else None in
  let first = if stages then Hashtbl.find_opt a.first_exec sn else None in
  List.iter
    (fun (db : Core.Datablock.t) ->
      if a.in_window then begin
        a.datablocks <- a.datablocks + 1;
        a.db_requests <- a.db_requests + db.Core.Datablock.req_count
      end;
      List.iter
        (fun (b : Workload.Request.t) ->
          let id = b.Workload.Request.id in
          if Vec.get a.confirmed_at id <> 0 then begin
            a.duplicates <- a.duplicates + 1;
            if Vec.get a.resent id = 0 then a.unsent_duplicates <- a.unsent_duplicates + 1
          end
          else begin
            Vec.set a.confirmed_at id now;
            a.confirmed <- a.confirmed + 1;
            if a.in_window then begin
              let i = (now - a.w0) / slice_ns in
              Vec.set a.slice_confirms i (Vec.get a.slice_confirms i + 1)
            end;
            let born = Vec.get a.born id in
            if a.crash_at > 0 && born >= a.crash_at && a.first_post_crash_confirm = 0 then
              a.first_post_crash_confirm <- now;
            (match (proposed, first) with
             | Some p, Some e ->
               Vec.push a.st_disseminate (max 0 (p - born));
               Vec.push a.st_agree (e - p);
               Vec.push a.st_confirm (now - e)
             | _ -> ());
            a.on_confirm id
          end)
        db.Core.Datablock.batches)
    dbs

let hooks a =
  let hook f = traced a.tr l_hook 0 f in
  { Core.Replica.on_execute =
      (fun ~id:_ ~sn _block dbs ->
        hook (fun () ->
            let c = 1 + Option.value ~default:0 (Hashtbl.find_opt a.exec_counts sn) in
            Hashtbl.replace a.exec_counts sn c;
            if c = 1 && a.tr <> None then Hashtbl.replace a.first_exec sn (mono_ns ());
            if c = a.f1 then on_f1 a ~sn dbs));
    on_view_change =
      (fun ~id:_ ~view:_ ->
        hook (fun () -> if a.in_window then a.view_changes <- a.view_changes + 1));
    on_view_change_trigger = (fun ~id:_ ~abandoned:_ -> ());
    on_propose =
      (fun ~id ~sn ~at:_ ->
        hook (fun () ->
            let now = mono_ns () in
            (* the last proposal before execution is the one executed: a
               new leader re-proposes serials the old one left open *)
            if a.tr <> None && not (Hashtbl.mem a.first_exec sn) then
              Hashtbl.replace a.propose_at sn now;
            if a.crash_at > 0 && id <> a.crashed && a.first_new_propose = 0 then
              a.first_new_propose <- now));
    on_checkpoint = (fun ~id:_ ~lw:_ -> ()) }

(* -- traced platform ----------------------------------------------------- *)

type seam_samples = {
  verify_wait : Vec.t; (* dispatch -> continuation, ns *)
  store_log : Vec.t; (* one [log] call, ns *)
  submit : Vec.t; (* one [Replica.submit], ns *)
  mutable on : bool; (* traced run, window open *)
}

let samples_create () =
  { verify_wait = Vec.create ~cap:sample_cap 1024;
    store_log = Vec.create ~cap:sample_cap 1024;
    submit = Vec.create ~cap:sample_cap 1024;
    on = false }

let wrap_platform tr ss (p : Core.Platform.t) : Core.Platform.t =
  let span l f = Tracer.span tr l 0 f in
  { p with
    schedule = (fun ~delay f -> p.schedule ~delay (fun () -> span l_timer f));
    schedule_at = (fun ~at f -> p.schedule_at ~at (fun () -> span l_timer f));
    submit = (fun ~cost f -> p.submit ~cost (fun () -> span l_task f));
    submit_ns = (fun ~cost_ns f -> p.submit_ns ~cost_ns (fun () -> span l_task f));
    set_handler =
      (fun h ->
        p.set_handler (fun ~src msg ->
            Tracer.span tr l_handler (Core.Msg.kind_index (Core.Msg.kind msg)) (fun () ->
                h ~src msg)));
    send = (fun ~dst msg -> span l_send (fun () -> p.send ~dst msg));
    multicast = (fun msg -> span l_multicast (fun () -> p.multicast msg));
    verify =
      (fun job k ->
        let t0 = mono_ns () in
        span l_verify_dispatch (fun () ->
            p.verify job (fun ok ->
                if ss.on then Vec.push ss.verify_wait (mono_ns () - t0);
                span l_verify_cont (fun () -> k ok))));
    store =
      { p.store with
        log =
          (fun r ->
            let t0 = mono_ns () in
            span l_store_log (fun () -> p.store.log r);
            if ss.on then Vec.push ss.store_log (mono_ns () - t0));
        save = (fun snap -> span l_store_save (fun () -> p.store.save snap)) } }

(* -- cluster ------------------------------------------------------------- *)

type cluster = {
  w : workload;
  cfg : Core.Config.t;
  loop : Loop.t;
  nodes : Runtime.node array;
  replicas : Core.Replica.t array;
  pool : Exec.Pool.t;
  stores : Store.Store_file.t array;
  dir : string;
  mutable ticks : Loop.tick_handle list;
  mutable tick_count : int;
}

let build ~w ~seed ~dir ~tr ~ss a =
  let cfg = cfg_of w in
  let n = w.n in
  let loop = Loop.create () in
  let stores =
    Array.init n (fun id ->
        Store.Store_file.create ~fsync:Store.Wal.Never
          ~now_ns:(fun () -> Loop.now_ns loop)
          ~dir:(Filename.concat dir (Printf.sprintf "node-%d" id))
          ())
  in
  let bufs = Transport.Pool.create () in
  (* One verify worker: with the loop thread that is two threads, one per
     vCPU of the reference host. *)
  let pool = Exec.Pool.create ~domains:1 () in
  let verify = Core.Verify.pooled pool in
  let nodes =
    Array.init n (fun id ->
        Runtime.node ~loop ~id ~n ~pool:bufs ~verify ~store:(Store.Store_file.sink stores.(id))
          ())
  in
  let ports = Array.map (fun node -> Runtime.listen node ()) nodes in
  Array.iteri
    (fun id node ->
      Array.iteri
        (fun dst port ->
          if dst <> id then
            Runtime.set_peer_addr node dst (Unix.ADDR_INET (Unix.inet_addr_loopback, port)))
        ports)
    nodes;
  let rng = Sim.Rng.create seed in
  let keys = Array.init n (fun _ -> Crypto.Signature.keygen rng) in
  let pks = Array.map fst keys in
  let tsetup, tkeys = Crypto.Threshold.keygen rng ~threshold:(2 * cfg.Core.Config.f) ~parties:n in
  let hooks = hooks a in
  let replicas =
    Array.init n (fun id ->
        let p = Runtime.platform nodes.(id) in
        let platform = match tr with None -> p | Some t -> wrap_platform t ss p in
        Core.Replica.create ~platform ~cfg ~id ~sk:(snd keys.(id)) ~pks ~tsetup
          ~tkey:tkeys.(id) ~hooks ())
  in
  let c =
    { w; cfg; loop; nodes; replicas; pool; stores; dir; ticks = []; tick_count = 0 }
  in
  let flush () = Array.iter Store.Store_file.flush stores in
  let drain () = traced tr l_verify_drain 0 (fun () -> ignore (Exec.Pool.drain pool : int)) in
  c.ticks <-
    [ Loop.on_tick loop (fun () -> traced tr l_store_flush 0 flush);
      Loop.on_tick loop drain ];
  Loop.watch_read loop (Exec.Pool.notify_fd pool) drain;
  Array.iter Core.Replica.start replicas;
  c

let close c =
  List.iter (Loop.remove_tick c.loop) c.ticks;
  c.ticks <- [];
  Loop.unwatch c.loop (Exec.Pool.notify_fd c.pool);
  Exec.Pool.shutdown c.pool;
  Array.iter (fun node -> Conn.close (Runtime.conn node)) c.nodes;
  Array.iter Store.Store_file.close c.stores;
  Store.Store_file.remove_dir c.dir

let is_up c id = not (Conn.is_down (Runtime.conn c.nodes.(id)))
let up_ids c = List.filter (is_up c) (List.init c.w.n Fun.id)

let current_leader c =
  let v = List.fold_left (fun acc id -> max acc (Core.Replica.view c.replicas.(id))) 1 (up_ids c) in
  Core.Config.leader_of_view c.cfg v

let fully_connected c =
  Array.for_all (fun node -> Conn.live_connections (Runtime.conn node) >= 2 * (c.w.n - 1)) c.nodes

let converged c =
  match up_ids c with
  | [] -> true
  | first :: rest ->
    let r0 = c.replicas.(first) in
    let exec = Core.Ledger.executed_up_to (Core.Replica.ledger r0) in
    let hash = Core.Replica.state_hash r0 in
    List.for_all
      (fun id ->
        let r = c.replicas.(id) in
        Core.Ledger.executed_up_to (Core.Replica.ledger r) = exec
        && Crypto.Hash.equal (Core.Replica.state_hash r) hash)
      rest

(* Position-wise agreement of every up replica's ledger with the first
   one's, over the serials both still retain. *)
let ledgers_agree c =
  match up_ids c with
  | [] -> true
  | first :: rest ->
    let l1 = Core.Replica.ledger c.replicas.(first) in
    List.for_all
      (fun id ->
        let l2 = Core.Replica.ledger c.replicas.(id) in
        let upto = min (Core.Ledger.executed_up_to l1) (Core.Ledger.executed_up_to l2) in
        let rec go sn =
          sn > upto
          || (match (Core.Ledger.get l1 sn, Core.Ledger.get l2 sn) with
              | Some x, Some y -> Core.Bftblock.equal_content x y
              | _ -> true)
             && go (sn + 1)
        in
        go 1)
      rest

let run_until c pred = Loop.run_while c.loop pred

(* -- client -------------------------------------------------------------- *)

type client = {
  c : cluster;
  a : acct;
  tr : Tracer.t option;
  ss : seam_samples;
  rng : Sim.Rng.t;
  mutable rr : int;
  mutable active : bool;
  mutable outstanding : int; (* admitted, not yet f+1-confirmed *)
  mutable rejected : int;
  mutable submits : int;
  mutable due : float; (* open loop: next arrival, mono ns *)
  late : Vec.t;
  pending : (int, Workload.Request.t * int ref) Hashtbl.t; (* re-send candidates *)
  mutable resends : int;
}

let client_create c a ~tr ~ss ~seed =
  let rng = Sim.Rng.create (Int64.add seed 7919L) in
  { c;
    a;
    tr;
    ss;
    rng;
    rr = Sim.Rng.int rng c.w.n;
    active = false;
    outstanding = 0;
    rejected = 0;
    submits = 0;
    due = 0.;
    late = Vec.create ~cap:sample_cap 1024;
    pending = Hashtbl.create 1024;
    resends = 0 }

(* Next target, round-robin over the up replicas that do not lead the
   current view. *)
let next_target cl ~leader =
  let n = cl.c.w.n in
  let rec go tries =
    if tries > n then None
    else begin
      cl.rr <- (cl.rr + 1) mod n;
      if cl.rr <> leader && is_up cl.c cl.rr then Some cl.rr else go (tries + 1)
    end
  in
  go 0

let replica_submit cl target req =
  let t0 = mono_ns () in
  let r =
    traced cl.tr l_submit 0 (fun () -> Core.Replica.submit cl.c.replicas.(target) req)
  in
  if cl.ss.on then Vec.push cl.ss.submit (mono_ns () - t0);
  cl.submits <- cl.submits + 1;
  r

let submit_one cl ~leader ~born =
  let a = cl.a in
  match next_target cl ~leader with
  | None -> ()
  | Some target ->
    let id = a.issued in
    a.issued <- id + 1;
    Vec.set a.born id born;
    Vec.set a.confirmed_at id 0;
    let req =
      Workload.Request.make ~id ~count:1 ~size_each:cl.c.cfg.Core.Config.payload
        ~born:(Loop.now cl.c.loop) ()
    in
    (match replica_submit cl target req with
     | Core.Replica.Admitted ->
       cl.outstanding <- cl.outstanding + 1;
       if cl.c.w.crash then Hashtbl.replace cl.pending id (req, ref (mono_ns ()))
     | Core.Replica.Rejected _ -> cl.rejected <- cl.rejected + 1)

let on_confirm cl id =
  cl.outstanding <- cl.outstanding - 1;
  Hashtbl.remove cl.pending id

(* Closed loop: top the outstanding set back up to K every loop tick. *)
let closed_tick cl k () =
  cl.c.tick_count <- cl.c.tick_count + 1;
  if cl.active && cl.outstanding < k then
    traced cl.tr l_client 0 (fun () ->
        let leader = current_leader cl.c in
        while cl.active && cl.outstanding < k do
          submit_one cl ~leader ~born:(mono_ns ())
        done)

(* Open loop: seeded Poisson arrivals; each request is timed from its
   due instant, and the generator's lateness is recorded. *)
let rec arrive cl () =
  if cl.active then begin
    let now = mono_ns () in
    traced cl.tr l_client 0 (fun () ->
        let leader = current_leader cl.c in
        let mean = 1e9 /. cl.c.w.rate in
        while cl.due <= float_of_int now do
          let due = int_of_float cl.due in
          submit_one cl ~leader ~born:due;
          if cl.ss.on then Vec.push cl.late (now - due);
          cl.due <- cl.due +. Sim.Rng.exponential cl.rng ~mean
        done);
    let delay = max 0 (int_of_float cl.due - mono_ns ()) in
    ignore (Loop.schedule cl.c.loop ~delay:(Int64.of_int delay) (arrive cl) : Loop.handle)
  end

(* Re-send unconfirmed requests every [resend_period_ns] with the resend
   tag, so replicas watch them and vote out a dead leader. *)
let rec resend_loop cl () =
  if cl.active || Hashtbl.length cl.pending > 0 then begin
    traced cl.tr l_client 0 (fun () ->
        let now = mono_ns () in
        let due =
          Hashtbl.fold
            (fun _ (req, last) acc ->
              if now - !last >= resend_period_ns then begin
                last := now;
                req :: acc
              end
              else acc)
            cl.pending []
        in
        let leader = current_leader cl.c in
        List.iter
          (fun req ->
            match next_target cl ~leader with
            | None -> ()
            | Some target ->
              cl.resends <- cl.resends + 1;
              Vec.set cl.a.resent req.Workload.Request.id 1;
              ignore
                (replica_submit cl target (Workload.Request.resend_of req)
                  : Core.Replica.admission))
          due);
    ignore
      (Loop.schedule cl.c.loop ~delay:(Int64.of_int (resend_period_ns / 2)) (resend_loop cl)
        : Loop.handle)
  end

let start_client cl =
  cl.active <- true;
  match cl.c.w.closed_k with
  | Some _ -> ()
  | None ->
    cl.due <- float_of_int (mono_ns ());
    arrive cl ();
    if cl.c.w.crash then resend_loop cl ()

(* -- set-up ---------------------------------------------------------------- *)

type bench = { cl : client; setup_ns : int }

exception Setup_failed of string

(* Set-up: keys, listeners, WAL dirs and replicas, then one warm-up
   request per non-leader (so every node multicasts once and dials every
   peer), until the mesh is complete and every warm-up request is
   f+1-confirmed. *)
let setup ~w ~seed ~dir ~tr ~ss =
  let t0 = mono_ns () in
  let f1 = Core.Config.max_faulty (cfg_of w) + 1 in
  let a = acct_create ~f1 ~tr in
  let c = build ~w ~seed ~dir ~tr ~ss a in
  let cl = client_create c a ~tr ~ss ~seed in
  a.on_confirm <- on_confirm cl;
  (match w.closed_k with
   | Some k -> c.ticks <- Loop.on_tick c.loop (closed_tick cl k) :: c.ticks
   | None -> c.ticks <- Loop.on_tick c.loop (fun () -> c.tick_count <- c.tick_count + 1) :: c.ticks);
  let leader = current_leader c in
  for _ = 2 to w.n do
    submit_one cl ~leader ~born:(mono_ns ())
  done;
  let deadline = t0 + 30_000_000_000 in
  run_until c (fun () ->
      mono_ns () < deadline && not (cl.outstanding = 0 && fully_connected c));
  if cl.outstanding <> 0 || not (fully_connected c) then begin
    close c;
    raise (Setup_failed "warm-up did not complete within 30 s")
  end;
  { cl; setup_ns = mono_ns () - t0 }

(* -- process-level probes ------------------------------------------------ *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> acc in
    let lines = List.rev (go []) in
    close_in ic;
    lines

let read_first_line path = match read_lines path with l :: _ -> Some l | [] -> None

(* CPU time of the loop (main) thread, ns: schedstat when the kernel has
   it, else utime+stime from stat in clock ticks (assumed 100 Hz). *)
let loop_thread_cpu_ns () =
  let task = Printf.sprintf "/proc/self/task/%d/" (Unix.getpid ()) in
  match read_first_line (task ^ "schedstat") with
  | Some l -> ( try Scanf.sscanf l "%d" Fun.id with _ -> 0)
  | None -> (
    match read_first_line (task ^ "stat") with
    | None -> 0
    | Some l -> (
      let rest = String.sub l (String.rindex l ')' + 2) (String.length l - String.rindex l ')' - 2) in
      match String.split_on_char ' ' rest with
      | fields when List.length fields > 12 ->
        (int_of_string (List.nth fields 11) + int_of_string (List.nth fields 12)) * 10_000_000
      | _ -> 0))

let process_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Host CPU ticks from /proc/stat: (steal, total over all states). Steal
   is time the hypervisor gave this machine's vCPUs to someone else. *)
let host_ticks () =
  match read_first_line "/proc/stat" with
  | None -> (0, 0)
  | Some l -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' l) with
    | "cpu" :: fields -> (
      let v = List.filter_map int_of_string_opt fields in
      match List.nth_opt v 7 with
      | Some steal -> (steal, List.fold_left ( + ) 0 v)
      | None -> (0, 0))
    | _ -> (0, 0))

let vm_hwm_kb () =
  List.fold_left
    (fun acc line -> try Scanf.sscanf line "VmHWM: %d kB" Fun.id with _ -> acc)
    0 (read_lines "/proc/self/status")

(* -- window snapshots -------------------------------------------------- *)

type conn_snap = {
  frames_sent : int;
  frames_recvd : int;
  bytes_sent : int;
  writes : int;
  reads : int;
  dropped : int;
}

type snap = {
  at : int;
  cpu_s : float;
  loop_cpu : int;
  host : int * int; (* steal, total ticks *)
  confirmed : int;
  issued : int;
  conns : conn_snap array;
  vstats : Exec.Pool.stats;
  minor_words : float;
  major : int;
  ticks : int;
  submits : int;
  rejected : int;
}

let snapshot cl =
  let c = cl.c in
  let gc = Gc.quick_stat () in
  { at = mono_ns ();
    cpu_s = process_cpu_s ();
    loop_cpu = loop_thread_cpu_ns ();
    host = host_ticks ();
    confirmed = cl.a.confirmed;
    issued = cl.a.issued;
    conns =
      Array.map
        (fun node ->
          let conn = Runtime.conn node in
          let s = Conn.stats conn in
          { frames_sent = s.Conn.frames_sent;
            frames_recvd = s.Conn.frames_recvd;
            bytes_sent = s.Conn.bytes_sent;
            writes = s.Conn.write_syscalls;
            reads = s.Conn.read_syscalls;
            dropped = Conn.dropped conn })
        c.nodes;
    vstats = Exec.Pool.stats c.pool;
    minor_words = gc.Gc.minor_words;
    major = gc.Gc.major_collections;
    ticks = c.tick_count;
    submits = cl.submits;
    rejected = cl.rejected }

(* -- correctness gate ---------------------------------------------------- *)

let gate cl =
  let c = cl.c and a = cl.a in
  let errs = ref [] in
  let check ok msg = if not ok then errs := msg :: !errs in
  check (ledgers_agree c) "up replicas' ledgers disagree position-wise";
  check (converged c) "up replicas did not converge (executed_up_to / state_hash)";
  (* A request is counted once, at its first f+1 execution. Executing it
     in a second serial is allowed only after the client re-sent it. *)
  check (a.unsent_duplicates = 0)
    (Printf.sprintf "%d requests never re-sent were f+1-executed twice" a.unsent_duplicates);
  check (a.confirmed <= a.issued)
    (Printf.sprintf "confirmed %d > attempted %d" a.confirmed a.issued);
  check
    (List.for_all
       (fun id -> Core.Ledger.executed_up_to (Core.Replica.ledger c.replicas.(id)) > 0)
       (up_ids c))
    "an up replica executed nothing";
  if not c.w.crash then
    Array.iteri
      (fun id node ->
        let conn = Runtime.conn node in
        List.iter
          (fun k ->
            if Core.Msg.kind_priority k = Net.Nic.High then
              check
                (Conn.dropped_by_kind conn k = 0)
                (Printf.sprintf "node %d dropped %d %s frames" id (Conn.dropped_by_kind conn k)
                   (Core.Msg.kind_name k)))
          Core.Msg.all_kinds;
        check (Conn.dropped_no_addr conn = 0)
          (Printf.sprintf "node %d dropped frames with no peer address" id))
      c.nodes;
  List.rev !errs

(* -- reporting ------------------------------------------------------------- *)

let json_num x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let fdiv a b = if b = 0. then 0. else a /. b
let idiv a b = fdiv (float_of_int a) (float_of_int b)
let ms ns = float_of_int ns /. 1e6
let median_ns v = quantile (Vec.sorted v) 0.5

(* -- main ------------------------------------------------------------------ *)

(* Set-ups timed per run (the median is reported), and load offered
   before the window opens. *)
let setups = 11
let warmup_ns = 1_000_000_000

let usage =
  "tcpbench --workload NAME --seed N --seconds S --trace 0|1 [--k-factor F]\n\
  \         [--data-dir DIR] [--spans-out FILE]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let k_factor = ref 1 in
  let data_root = ref ".tcpbench_data" and spans_out = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured window, s");
      ("--trace", Arg.Set_int trace, "1 = traced run (per-layer metrics)");
      ("--k-factor", Arg.Set_int k_factor, "multiply the closed loop's K (calibration)");
      ("--data-dir", Arg.Set_string data_root, "WAL root directory");
      ("--spans-out", Arg.Set_string spans_out, "traced run: span dump file") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w ->
      (match w.closed_k with
       | Some k -> { w with closed_k = Some (k * max 1 !k_factor) }
       | None -> w)
    | None ->
      prerr_endline
        ("unknown workload; one of: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  let seed = Int64.of_int !seed in
  let tr = if !trace = 1 then Some (Tracer.create ~cap:2_000_000) else None in
  let ss = samples_create () in
  let dir_base =
    Filename.concat !data_root (Printf.sprintf "%s-%d" w.name (Unix.getpid ()))
  in
  (* Set up several times and report the median; the last set-up is the
     one measured. *)
  let rec setups_loop i acc =
    let dir = Printf.sprintf "%s.%d" dir_base i in
    let b = setup ~w ~seed ~dir ~tr ~ss in
    if i + 1 < setups then begin
      close b.cl.c;
      Gc.compact ();
      setups_loop (i + 1) (b.setup_ns :: acc)
    end
    else (b, b.setup_ns :: acc)
  in
  let b, setup_times =
    try setups_loop 0 []
    with Setup_failed msg ->
      prerr_endline ("set-up failed: " ^ msg);
      print_result ~correct:false ~attempted:1 ~failed:1 [];
      exit 1
  in
  let cl = b.cl and c = b.cl.c and a = b.cl.a in
  let setup_s = float_of_int (quantile (Array.of_list (List.sort compare setup_times)) 0.5) /. 1e9 in
  let result =
    Fun.protect
      ~finally:(fun () -> close c)
      (fun () ->
        Gc.compact ();
        start_client cl;
        let w0 = mono_ns () + warmup_ns in
        run_until c (fun () -> mono_ns () < w0);
        (* window *)
        Option.iter Tracer.reset tr;
        (* per-call samples are the traced run's; the end-to-end run only
           keeps per-request timestamps *)
        ss.on <- tr <> None;
        a.in_window <- true;
        let s0 = snapshot cl in
        a.w0 <- s0.at;
        a.last_confirm <- s0.at;
        let window_ns = int_of_float (!seconds *. 1e9) in
        if w.crash then begin
          let offset = min 2_000_000_000 (window_ns / 5) in
          let leader = current_leader c in
          ignore
            (Loop.schedule c.loop ~delay:(Int64.of_int offset) (fun () ->
                 a.crashed <- leader;
                 a.crash_at <- mono_ns ();
                 Runtime.set_down c.nodes.(leader) true)
              : Loop.handle)
        end;
        let w1 = s0.at + window_ns in
        run_until c (fun () -> mono_ns () < w1);
        let s1 = snapshot cl in
        a.in_window <- false;
        ss.on <- false;
        close_gap a (min s1.at (s0.at + window_ns) - 1);
        let tr_snap =
          Option.map
            (fun (t : Tracer.t) ->
              ( Array.copy t.Tracer.self_ns,
                Array.copy t.Tracer.total_ns,
                Array.copy t.Tracer.calls,
                Array.copy t.Tracer.kind_self_ns,
                Array.copy t.Tracer.kind_calls,
                t.Tracer.top_ns ))
            tr
        in
        (* drain: stop offering load, let every admitted request confirm
           and the up replicas converge *)
        cl.active <- false;
        let drain_deadline = mono_ns () + 20_000_000_000 in
        run_until c (fun () ->
            mono_ns () < drain_deadline && not (cl.outstanding = 0 && converged c));
        let errs = gate cl in
        (s0, s1, tr_snap, errs))
  in
  let s0, s1, tr_snap, errs = result in
  let wall_ns = s1.at - s0.at in
  let wall_s = float_of_int wall_ns /. 1e9 in
  let conf_w = s1.confirmed - s0.confirmed in
  let per_req x = fdiv x (float_of_int conf_w) in
  (* window requests: ids issued inside the window *)
  let lat = Vec.create 65536 in
  let failed = ref 0 in
  for id = s0.issued to s1.issued - 1 do
    let at = Vec.get a.confirmed_at id in
    if at = 0 then incr failed else Vec.push lat (at - Vec.get a.born id)
  done;
  let attempted = s1.issued - s0.issued in
  let lat = Vec.sorted lat in
  let samples = Array.length lat in
  let unavailable_ns =
    if w.crash then
      if a.first_post_crash_confirm > 0 then a.first_post_crash_confirm - a.crash_at
      else mono_ns () - a.crash_at
    else median_ns a.slice_gap
  in
  Printf.printf
    "tcpbench: workload=%s seed=%Ld n=%d %s window=%.3fs setups=%d\n\
     config: alpha=100 bft_size=10 datablock/proposal timeouts 20ms, WAL fsync never, loopback \
     TCP with no injected delay; request payloads are modelled (%d B each), not sent\n\
     attempted=%d confirmed_in_window=%d failed=%d latency_samples=%d duplicates=%d \
     resends=%d host_steal=%.1f%%\n"
    w.name seed w.n
    (match w.closed_k with
     | Some k -> Printf.sprintf "closed-loop K=%d" k
     | None -> Printf.sprintf "open-loop %.0f req/s" w.rate)
    wall_s (List.length setup_times) c.cfg.Core.Config.payload attempted conf_w !failed
    samples a.duplicates cl.resends
    (100. *. idiv (fst s1.host - fst s0.host) (snd s1.host - snd s0.host));
  let slices v f = String.concat " " (List.init v.Vec.len (fun i -> f (Vec.get v i))) in
  Printf.printf "confirmations per 0.5 s slice: %s\nlongest gap per 0.5 s slice (ms): %s\n"
    (slices a.slice_confirms string_of_int)
    (slices a.slice_gap (fun g -> Printf.sprintf "%.1f" (ms g)));
  Printf.printf "set-up times (ms): %s\n"
    (String.concat " " (List.rev_map (fun t -> Printf.sprintf "%.1f" (ms t)) setup_times));
  if errs <> [] then begin
    List.iter (fun e -> prerr_endline ("CHECK FAILED: " ^ e)) errs;
    print_result ~correct:false ~attempted:(max 1 attempted) ~failed:!failed [];
    exit 1
  end;
  if attempted = 0 || conf_w = 0 then begin
    prerr_endline "CHECK FAILED: nothing was attempted or confirmed in the window";
    print_result ~correct:false ~attempted:(max 1 attempted) ~failed:!failed [];
    exit 1
  end;
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 in
  let d f = sum f s1.conns - sum f s0.conns in
  match tr_snap with
  | None ->
    print_result ~correct:true ~attempted ~failed:!failed
      [ ("setup_s", setup_s, "s");
        ("confirmed_rps", float_of_int conf_w /. wall_s, "1/s");
        ("confirm_p50_ms", ms (quantile lat 0.5), "ms");
        ("confirm_p99_ms", ms (quantile lat 0.99), "ms");
        ("confirmed_ratio", idiv (attempted - !failed) attempted, "ratio");
        ("unavailable_s", float_of_int unavailable_ns /. 1e9, "s");
        ("cpu_us_per_req", per_req ((s1.cpu_s -. s0.cpu_s) *. 1e6), "us");
        ("peak_rss_mb", float_of_int (vm_hwm_kb ()) /. 1024., "MB") ]
  | Some (self_ns, total_ns, calls, kind_self_ns, kind_calls, top_ns) ->
    let t = Option.get tr in
    if !spans_out <> "" then Tracer.write t !spans_out;
    let us_per_req ns = per_req (float_of_int ns /. 1e3) in
    let leader = Core.Config.leader_of_view c.cfg 1 in
    let leader_bytes = s1.conns.(leader).bytes_sent - s0.conns.(leader).bytes_sent in
    let mean_bytes = idiv (d (fun s -> s.bytes_sent)) w.n in
    let vt = s1.vstats.Exec.Pool.tasks - s0.vstats.Exec.Pool.tasks in
    let loop_cpu = s1.loop_cpu - s0.loop_cpu in
    let kinds =
      List.map
        (fun k ->
          let i = Core.Msg.kind_index k in
          ( "replica.handler_ns." ^ Core.Msg.kind_name k,
            idiv kind_self_ns.(i) kind_calls.(i),
            "ns" ))
        Core.Msg.all_kinds
    in
    Printf.printf "spans recorded=%d lost=%d\n" t.Tracer.spans t.Tracer.lost;
    print_result ~correct:true ~attempted ~failed:!failed
      ([ ("loop.busy_ratio", idiv loop_cpu wall_ns, "ratio");
         ("loop.self_us_per_req", us_per_req (max 0 (loop_cpu - top_ns)), "us");
         ("loop.rounds_per_req", per_req (float_of_int (s1.ticks - s0.ticks) /. 2.), "count");
         ("conn.frames_per_req", per_req (float_of_int (d (fun s -> s.frames_sent))), "count");
         ("conn.bytes_per_req", per_req (float_of_int (d (fun s -> s.bytes_sent))), "B");
         ("conn.writes_per_frame", idiv (d (fun s -> s.writes)) (d (fun s -> s.frames_sent)), "ratio");
         ("conn.reads_per_frame", idiv (d (fun s -> s.reads)) (d (fun s -> s.frames_recvd)), "ratio");
         ("conn.dropped", float_of_int (d (fun s -> s.dropped)), "count");
         ("conn.send_us_per_req", us_per_req (total_ns.(l_send) + total_ns.(l_multicast)), "us");
         ("conn.leader_egress_share", fdiv (float_of_int leader_bytes) mean_bytes, "ratio");
         ("mempool.submit_ns_p50", float_of_int (median_ns ss.submit), "ns");
         ("mempool.rejected_ratio", idiv (s1.rejected - s0.rejected) (s1.submits - s0.submits), "ratio");
         ("datablock.fill_ratio", fdiv (idiv a.db_requests a.datablocks) 100., "ratio");
         ("bftblock.fill_ratio", fdiv (idiv a.datablocks a.blocks) 10., "ratio");
         ("stage.disseminate_ms_p50", ms (median_ns a.st_disseminate), "ms");
         ("stage.agree_ms_p50", ms (median_ns a.st_agree), "ms");
         ("stage.confirm_ms_p50", ms (median_ns a.st_confirm), "ms");
         ("replica.handler_us_per_req", us_per_req self_ns.(l_handler), "us");
         ("replica.timer_us_per_req", us_per_req self_ns.(l_timer), "us");
         ("replica.task_us_per_req", us_per_req self_ns.(l_task), "us");
         ("replica.msgs_per_req", per_req (float_of_int calls.(l_handler)), "count");
         ( "stage.viewchange_s",
           (if w.crash && a.first_new_propose > 0 then
              float_of_int (a.first_new_propose - a.crash_at) /. 1e9
            else 0.),
           "s" );
         ("replica.view_changes", float_of_int a.view_changes, "count");
         ("verify.jobs_per_req", per_req (float_of_int vt), "count");
         ("verify.wait_ms_p50", ms (median_ns ss.verify_wait), "ms");
         ("verify.dispatch_us_per_req", us_per_req self_ns.(l_verify_dispatch), "us");
         ("verify.cont_us_per_req", us_per_req self_ns.(l_verify_cont), "us");
         ( "verify.worker_busy_ratio",
           idiv (s1.vstats.Exec.Pool.busy_ns - s0.vstats.Exec.Pool.busy_ns) wall_ns,
           "ratio" );
         ( "verify.inline_ratio",
           idiv (s1.vstats.Exec.Pool.inline_runs - s0.vstats.Exec.Pool.inline_runs) vt,
           "ratio" );
         ("store.records_per_req", per_req (float_of_int calls.(l_store_log)), "count");
         ("store.log_ns_p50", float_of_int (median_ns ss.store_log), "ns");
         ("store.flush_us_per_req", us_per_req total_ns.(l_store_flush), "us");
         ("store.save_us_per_req", us_per_req total_ns.(l_store_save), "us");
         ("gc.minor_words_per_req", per_req (s1.minor_words -. s0.minor_words), "words");
         ("gc.major_per_s", fdiv (float_of_int (s1.major - s0.major)) wall_s, "1/s");
         ( "client.late_ms_p99",
           (if w.closed_k = None then ms (quantile (Vec.sorted cl.late) 0.99) else 0.),
           "ms" );
         ("bench.self_us_per_req", us_per_req (self_ns.(l_hook) + self_ns.(l_client)), "us");
         ("trace.confirmed_rps", float_of_int conf_w /. wall_s, "1/s");
         ("trace.cpu_us_per_req", per_req ((s1.cpu_s -. s0.cpu_s) *. 1e6), "us") ]
      @ kinds)

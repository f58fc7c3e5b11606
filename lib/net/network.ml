open Sim

type 'msg meta = {
  size : 'msg -> int;
  category : 'msg -> string;
  priority : 'msg -> Nic.priority;
}

type link = {
  out_bps : float;
  in_bps : float;
  prop_delay : Sim_time.span;
  jitter : Sim_time.span;
  lanes : int;
}

let default_link =
  { out_bps = 4.9e9;
    in_bps = 4.9e9;
    prop_delay = Sim_time.ms 1;
    jitter = Sim_time.us 200;
    lanes = 1 }

let mbps x = x *. 1e6

(* What travels through NICs: protocol messages, client injections, and
   external egress (client acks), each with enough context to finish the
   hop when serialization completes. Wire size, category and priority are
   computed once at send time and carried along.

   A [Fanout] is one shared record standing for a whole multicast: the
   sender's NIC transmits it [n - 1] times (see {!Nic.submit_many}), and
   each egress completion claims the next destination in ascending order
   via the [next] counter. Copies of one fanout always complete in start
   order — equal sizes on FIFO lanes — so the counter reproduces exactly
   the per-destination packets it replaced. *)
type 'msg packet =
  | Proto of {
      src : Node_id.t;
      dst : Node_id.t;
      msg : 'msg;
      size : int;
      category : string;
      priority : Nic.priority;
    }
  | Fanout of {
      src : Node_id.t;
      msg : 'msg;
      size : int;
      category : string;
      priority : Nic.priority;
      mutable next : int;    (* egress completions so far *)
    }
  | External of { callback : unit -> unit }

type 'msg node = {
  egress : 'msg packet Nic.t;
  ingress : 'msg packet Nic.t;
  account : Bandwidth.t;
  mutable handler : (src:Node_id.t -> 'msg -> unit) option;
  mutable down : bool;
}

type fault_verdict =
  | Pass
  | Drop
  | Delay of Sim_time.span
  | Duplicate

type 'msg t = {
  engine : Engine.t;
  meta : 'msg meta;
  mutable link : link;
  nodes : 'msg node array;
  rng : Rng.t;
  mutable extra_delay :
    (now:Sim_time.t -> src:Node_id.t -> dst:Node_id.t -> Sim_time.span) option;
  mutable fault :
    (now:Sim_time.t -> src:Node_id.t -> dst:Node_id.t -> 'msg -> fault_verdict) option;
  mutable delivered : int;
}

let engine t = t.engine
let n t = Array.length t.nodes
let delivered_messages t = t.delivered

let deliver t dst packet =
  let node = t.nodes.(dst) in
  if not node.down then
    match packet with
    | External { callback } -> callback ()
    | Proto { src; msg; size; category; _ } | Fanout { src; msg; size; category; _ } ->
      t.delivered <- t.delivered + 1;
      Bandwidth.record node.account Received ~category size;
      (match node.handler with
       | Some h -> h ~src msg
       | None -> ())

let wire_delay_ns t ~src ~dst =
  let jit =
    if Int64.compare t.link.jitter 0L > 0 then
      int_of_float (Rng.float t.rng (Int64.to_float t.link.jitter))
    else 0
  in
  let extra =
    match t.extra_delay with
    | Some f -> Int64.to_int (f ~now:(Engine.now t.engine) ~src ~dst)
    | None -> 0
  in
  Int64.to_int t.link.prop_delay + jit + extra

(* Egress completion: the packet crosses the wire, then contends for the
   receiver's ingress NIC. Sent bytes are accounted here — when they have
   actually left the NIC — so a backlogged egress queue cannot inflate a
   measurement window's utilization. *)
let cross_wire t ~src ~dst ~priority ~size packet =
  let deliver_after dt =
    ignore
      (Engine.schedule_ns t.engine ~delay_ns:dt (fun () ->
           let node = t.nodes.(dst) in
           if not node.down then Nic.submit node.ingress ~priority ~size packet))
  in
  let verdict =
    match t.fault with
    | None -> Pass
    | Some f -> (
      match packet with
      | Proto { msg; _ } | Fanout { msg; _ } ->
        f ~now:(Engine.now t.engine) ~src ~dst msg
      | External _ -> Pass)
  in
  match verdict with
  | Drop -> ()
  | Pass -> deliver_after (wire_delay_ns t ~src ~dst)
  | Delay d -> deliver_after (wire_delay_ns t ~src ~dst + max 0 (Int64.to_int d))
  | Duplicate ->
    (* Both copies share one wire delay so the pair arrives back-to-back,
       the adversary's best reordering position. *)
    let dt = wire_delay_ns t ~src ~dst in
    deliver_after dt;
    deliver_after dt

let on_egress_done t packet =
  match packet with
  | External _ -> () (* external egress has no in-network destination *)
  | Proto { src; dst; size; category; priority; _ } ->
    Bandwidth.record t.nodes.(src).account Sent ~category size;
    cross_wire t ~src ~dst ~priority ~size packet
  | Fanout ({ src; size; category; priority; _ } as f) ->
    Bandwidth.record t.nodes.(src).account Sent ~category size;
    (* the k-th completion serves the k-th destination in ascending
       order, skipping the sender *)
    let k = f.next in
    f.next <- k + 1;
    let dst = if k < src then k else k + 1 in
    cross_wire t ~src ~dst ~priority ~size packet

let create engine ~n ~meta ~link =
  assert (n >= 1);
  let rng = Rng.split (Engine.rng engine) in
  (* NIC completion callbacks need the network value that owns the NICs;
     tie the knot with a forward reference resolved before any event runs. *)
  let t_ref = ref None in
  let the_t () = match !t_ref with Some t -> t | None -> assert false in
  let make_node i =
    let egress =
      Nic.create ~lanes:link.lanes engine ~rate_bps:link.out_bps
        ~on_done:(fun p -> on_egress_done (the_t ()) p)
    in
    let ingress =
      Nic.create ~lanes:link.lanes engine ~rate_bps:link.in_bps ~on_done:(fun p ->
          let t = the_t () in
          match p with
          | External { callback } -> if not t.nodes.(i).down then callback ()
          | Proto { dst; _ } -> deliver t dst p
          | Fanout _ -> deliver t i p (* this ingress NIC belongs to [i] *))
    in
    { egress; ingress; account = Bandwidth.create (); handler = None; down = false }
  in
  let t =
    { engine; meta; link; nodes = Array.init n make_node; rng; extra_delay = None;
      fault = None; delivered = 0 }
  in
  t_ref := Some t;
  t

let set_handler t id h = t.nodes.(id).handler <- Some h

let send t ~src ~dst msg =
  let node = t.nodes.(src) in
  if not node.down then begin
    let size = t.meta.size msg in
    let category = t.meta.category msg in
    let priority = t.meta.priority msg in
    let packet = Proto { src; dst; msg; size; category; priority } in
    if Node_id.equal src dst then deliver t dst packet
    else Nic.submit node.egress ~priority ~size packet
  end

let multicast t ~src msg =
  let node = t.nodes.(src) in
  if (not node.down) && Array.length t.nodes > 1 then begin
    let size = t.meta.size msg in
    let category = t.meta.category msg in
    let priority = t.meta.priority msg in
    let packet = Fanout { src; msg; size; category; priority; next = 0 } in
    Nic.submit_many node.egress ~priority ~size ~copies:(Array.length t.nodes - 1) packet
  end

let inject t ~dst ~size ~category callback =
  let node = t.nodes.(dst) in
  if not node.down then begin
    Bandwidth.record node.account Received ~category size;
    Nic.submit node.ingress ~priority:Nic.Low ~size (External { callback })
  end

let charge_egress t ~src ~size ~category =
  let node = t.nodes.(src) in
  if not node.down then begin
    Bandwidth.record node.account Sent ~category size;
    Nic.submit node.egress ~priority:Nic.Low ~size (External { callback = (fun () -> ()) })
  end

let set_down t id v = t.nodes.(id).down <- v
let is_down t id = t.nodes.(id).down

let set_extra_delay t f = t.extra_delay <- Some f
let set_fault_hook t f = t.fault <- Some f
let clear_fault_hook t = t.fault <- None

let set_rates t ~out_bps ~in_bps =
  t.link <- { t.link with out_bps; in_bps };
  Array.iter
    (fun node ->
      Nic.set_rate node.egress out_bps;
      Nic.set_rate node.ingress in_bps)
    t.nodes

let stats t id = t.nodes.(id).account
let reset_stats t = Array.iter (fun node -> Bandwidth.reset node.account) t.nodes

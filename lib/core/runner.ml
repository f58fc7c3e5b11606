open Sim

type spec = {
  cfg : Config.t;
  link : Net.Network.link;
  seed : int64;
  load : float;
  duration : Sim_time.span;
  warmup : Sim_time.span;
  load_until : Sim_time.span option;
  byzantine : (Net.Node_id.t * Byzantine.t) list;
  stop_leader_at : Sim_time.span option;
  client_resend_timeout : Sim_time.span option;
  gst : Sim_time.span option;
  trace : bool;
  stores : Store.sink array option;
  obs : Obs.Registry.t option;
}

let spec ~cfg ?(link = Net.Network.default_link) ?(seed = 42L) ?(load = 1e5)
    ?(duration = Sim_time.s 20) ?(warmup = Sim_time.s 5) ?load_until ?(byzantine = [])
    ?stop_leader_at ?client_resend_timeout ?gst ?(trace = false) ?stores ?obs () =
  { cfg;
    link;
    seed;
    load;
    duration;
    warmup;
    load_until;
    byzantine;
    stop_leader_at;
    client_resend_timeout;
    gst;
    trace;
    stores;
    obs }

let silent_f cfg =
  let leader = Config.leader_of_view cfg 1 in
  let rec pick i acc =
    if List.length acc >= cfg.Config.f then List.rev acc
    else
      let id = i mod cfg.Config.n in
      if Net.Node_id.equal id leader then pick (i + 1) acc
      else pick (i + 1) ((id, Byzantine.Silent) :: acc)
  in
  (* Start after the leader so the picked set is stable and non-leader. *)
  pick (leader + 1) []

type bandwidth_view = {
  sent_bytes : int;
  received_bytes : int;
  sent_by_category : (string * int) list;
  received_by_category : (string * int) list;
}

type report = {
  n : int;
  offered : int;
  confirmed : int;
  throughput : float;
  goodput_bps : float;
  latency : Obs.Histogram.snapshot;
  stage_seconds : (string * float) list;
  leader : bandwidth_view;
  non_leader : bandwidth_view;
  leader_bps : float;
  window_sec : float;
  executed_blocks : int;
  view_changes : int;
  final_view : int;
  vc_trigger_to_entry : float option;
  vc_bytes : int;
  equivocations_detected : int;
  all_confirmed : bool;
  safety_ok : bool;
}

type t = {
  sp : spec;
  engine : Engine.t;
  network : Msg.t Net.Network.t;
  driver : Driver.t;
  gen : Workload.Generator.t;
  trace : Trace.t;
  confirm_meter : Stats.Meter.t;
  goodput_meter : Stats.Meter.t; (* payload bytes confirmed *)
  (* Table-3 stage accumulators (request-weighted seconds), indexed by
     [stage_*] below; the report materializes the named list. *)
  stage_acc : float array;
}

let engine t = t.engine
let network t = t.network
let driver t = t.driver
let replicas t = Driver.replicas t.driver
let trace t = t.trace

let stage_generation = 0
and stage_delivery = 1
and stage_agreement = 2
and stage_response = 3

let stage_names =
  [| "Datablock Generation"; "Datablock Delivery"; "Agreement"; "Response to Client" |]

(* Per confirmed batch: rate meters and the Table 3 decomposition. *)
let on_confirm ~confirm_meter ~goodput_meter ~(acc : float array) ~prop_delay ~now ~proposed_at
    (db : Datablock.t) (b : Workload.Request.t) =
  let count = b.Workload.Request.count in
  Stats.Meter.add confirm_meter ~at:now count;
  Stats.Meter.add goodput_meter ~at:now (Workload.Request.payload_bytes b);
  let w = float_of_int count in
  let gen_span = Sim_time.to_sec Sim_time.(db.Datablock.created_at - b.Workload.Request.born) in
  acc.(stage_generation) <- acc.(stage_generation) +. (w *. Float.max 0. gen_span);
  (match proposed_at with
   | Some p ->
     acc.(stage_delivery) <-
       acc.(stage_delivery)
       +. (w *. Float.max 0. (Sim_time.to_sec Sim_time.(p - db.Datablock.created_at)));
     acc.(stage_agreement) <-
       acc.(stage_agreement) +. (w *. Float.max 0. (Sim_time.to_sec Sim_time.(now - p)))
   | None -> ());
  acc.(stage_response) <- acc.(stage_response) +. (w *. Sim_time.to_sec prop_delay)

let create sp =
  let cfg = sp.cfg in
  let engine = Engine.create ~seed:sp.seed () in
  let meta =
    if cfg.Config.priority_channels then Msg.meta
    else Net.Network.{ Msg.meta with priority = (fun _ -> Net.Nic.Low) }
  in
  let network = Net.Network.create engine ~n:cfg.Config.n ~meta ~link:sp.link in
  (match sp.gst with
   | Some gst ->
     let rng = Rng.split (Engine.rng engine) in
     Net.Network.set_extra_delay network
       (Net.Partial_sync.until_gst ~rng ~gst ~max_delay:cfg.Config.view_timeout)
   | None -> ());
  let key_rng = Rng.split (Engine.rng engine) in
  let trace = Trace.create ~enabled:sp.trace ~capacity:1_000_000 () in
  let confirm_meter = Stats.Meter.create () and goodput_meter = Stats.Meter.create () in
  let stage_acc = Array.make (Array.length stage_names) 0. in
  let inject ~dst ~size cb = Net.Network.inject network ~dst ~size ~category:"client-req" cb in
  let driver =
    Driver.create ~cfg ~key_rng
      ~platform:(fun id ->
        Platform.of_sim ?store:(Option.map (fun stores -> stores.(id)) sp.stores)
          ~engine ~network ~id ~cores:cfg.Config.cores ())
      ~now:(fun () -> Engine.now engine)
      ~schedule:(fun ~delay f -> ignore (Engine.schedule engine ~delay f))
      ~deliver:inject ~byzantine:sp.byzantine ~resend:sp.client_resend_timeout ~trace
      ?obs:sp.obs
      ~on_confirm:
        (on_confirm ~confirm_meter ~goodput_meter ~acc:stage_acc
           ~prop_delay:sp.link.Net.Network.prop_delay)
      ()
  in
  let replicas = Driver.replicas driver in
  let leader = Config.leader_of_view cfg 1 in
  (* Clients avoid the leader (it generates no datablocks) unless the
     leader-generates ablation is on. *)
  let is_target id =
    (not (Net.Node_id.equal id leader)) || cfg.Config.leader_generates_datablocks
  in
  (* Clients do not know who is Byzantine; with re-sends enabled they
     spray over every target and rely on the timeout path, otherwise
     target honest replicas so offered = confirmable. *)
  let targets =
    List.filter
      (fun id ->
        is_target id
        && (sp.client_resend_timeout <> None || not (Driver.is_byzantine driver id)))
      (List.init cfg.Config.n Fun.id)
  in
  let gen =
    (* Coarser client batching at large scale keeps the event volume of
       the open-loop generator proportional to the offered load rather
       than to n. *)
    let tick = if cfg.Config.n >= 128 then Sim_time.ms 100 else Sim_time.ms 20 in
    (* Client fan-out s > 1 (§4.1): each batch (the generator submits it
       once) also goes to s - 1 extra mu-chosen replicas; the driver
       counts it once. *)
    let submit ~target b =
      (* The sim client stays open-loop: verdicts are rendered but not
         acted on (an overload scenario's oracle reads the counters). *)
      ignore (Replica.submit replicas.(target) b : Replica.admission);
      if cfg.Config.s > 1 then
        Workload.Assign.replicas_for ~n:cfg.Config.n ~s:cfg.Config.s ~leader
          ~key:b.Workload.Request.id
        |> List.iter (fun dst ->
               if not (Net.Node_id.equal dst target) then
                 inject ~dst ~size:(Workload.Request.wire_bytes b) (fun () ->
                     ignore (Replica.submit replicas.(dst) b : Replica.admission)))
    in
    Workload.Generator.start engine ~rate:sp.load ~payload:cfg.Config.payload ~targets ~tick
      ~inject ~submit ~on_batch:(Driver.offer driver)
      ?until:(match sp.load_until with Some u -> Some u | None -> Some sp.duration)
      ()
  in
  let t =
    { sp;
      engine;
      network;
      driver;
      gen;
      trace;
      confirm_meter;
      goodput_meter;
      stage_acc }
  in
  (* Bandwidth accounting restarts when the warmup window closes. *)
  ignore (Engine.schedule_at engine ~at:sp.warmup (fun () -> Net.Network.reset_stats network));
  (match sp.stop_leader_at with
   | Some at ->
     ignore
       (Engine.schedule_at engine ~at (fun () ->
            Net.Network.set_down network leader true;
            Trace.recordf trace ~at ~tag:"leader.stopped" "%a" Net.Node_id.pp leader))
   | None -> ());
  Driver.arm_resends driver ~until:sp.duration ();
  t

let run_until t at = Engine.run ~until:at t.engine

(* Process restart mid-run: kill the replica, rebuild it from its durable
   store (the spec must have attached [stores]; with none attached the
   replacement restarts from genesis, which a safety check would catch)
   on a fresh sim platform bound to the same network slot. *)
let restart_replica t id =
  let store = Option.map (fun stores -> stores.(id)) t.sp.stores in
  Driver.restart t.driver id
    ~platform:
      (Platform.of_sim ?store ~engine:t.engine ~network:t.network ~id
         ~cores:t.sp.cfg.Config.cores ())

let bandwidth_view t id =
  let acct = Net.Network.stats t.network id in
  { sent_bytes = Net.Bandwidth.total acct Net.Bandwidth.Sent;
    received_bytes = Net.Bandwidth.total acct Net.Bandwidth.Received;
    sent_by_category = Net.Bandwidth.by_category acct Net.Bandwidth.Sent;
    received_by_category = Net.Bandwidth.by_category acct Net.Bandwidth.Received }

let report t =
  let cfg = t.sp.cfg in
  let now = Engine.now t.engine in
  let from_ = t.sp.warmup and until = now in
  let window_sec = Sim_time.to_sec Sim_time.(until - from_) in
  let leader = Config.leader_of_view cfg 1 in
  let non_leader =
    List.find
      (fun id -> not (Net.Node_id.equal id leader))
      (Driver.honest_ids t.driver)
  in
  let leader_view = bandwidth_view t leader in
  let throughput = Stats.Meter.rate t.confirm_meter ~from_ ~until in
  let goodput_bps = 8. *. Stats.Meter.rate t.goodput_meter ~from_ ~until in
  let vc_bytes =
    Array.to_list (replicas t)
    |> List.map (fun r ->
           Net.Bandwidth.category_total
             (Net.Network.stats t.network (Replica.id r))
             Net.Bandwidth.Sent "viewchange")
    |> List.fold_left ( + ) 0
  in
  let all_confirmed =
    List.for_all Workload.Request.is_confirmed (Workload.Generator.batches t.gen)
  in
  { n = cfg.Config.n;
    offered = Workload.Generator.offered t.gen;
    confirmed = Driver.confirmed t.driver;
    throughput;
    goodput_bps;
    latency = Driver.latency t.driver;
    stage_seconds = Array.to_list (Array.mapi (fun i name -> (name, t.stage_acc.(i))) stage_names);
    leader = leader_view;
    non_leader = bandwidth_view t non_leader;
    leader_bps =
      (if window_sec <= 0. then 0.
       else 8. *. float_of_int (leader_view.sent_bytes + leader_view.received_bytes) /. window_sec);
    window_sec;
    executed_blocks = Driver.executed_blocks t.driver;
    view_changes = Driver.view_changes t.driver;
    final_view = Driver.final_view t.driver;
    vc_trigger_to_entry = Driver.vc_trigger_to_entry t.driver;
    vc_bytes;
    equivocations_detected = Driver.equivocations t.driver;
    all_confirmed;
    safety_ok = Driver.ledgers_agree t.driver }

let run sp =
  let t = create sp in
  run_until t sp.duration;
  report t

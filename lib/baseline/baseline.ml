open Sim

type 'cfg spec = {
  cfg : 'cfg;
  link : Net.Network.link;
  seed : int64;
  load : float;
  duration : Sim_time.span;
  warmup : Sim_time.span;
  silent : int;
}

type 'cfg options =
  ?link:Net.Network.link ->
  ?seed:int64 ->
  ?load:float ->
  ?duration:Sim_time.span ->
  ?warmup:Sim_time.span ->
  ?silent:int ->
  unit ->
  'cfg spec

let spec ~cfg ~f ?(link = Net.Network.default_link) ?(seed = 42L) ?(load = 1e5)
    ?(duration = Sim_time.s 20) ?(warmup = Sim_time.s 5) ?silent () =
  { cfg; link; seed; load; duration; warmup; silent = Option.value silent ~default:f }

type report = {
  n : int;
  offered : int;
  confirmed : int;
  throughput : float;
  goodput_bps : float;
  latency : Obs.Histogram.snapshot;
  leader_sent_bytes : int;
  leader_received_bytes : int;
  leader_bps : float;
  window_sec : float;
  committed_heights : int;
  safety_ok : bool;
}

module Tally = struct
  type height = { digest : Crypto.Hash.t; mutable executions : int }

  type t = {
    quorum : int;
    heights : (int, height) Hashtbl.t;
    (* Offered batch ids not yet confirmed: bounded by the backlog. *)
    outstanding : (int, unit) Hashtbl.t;
    confirms : Stats.Meter.t;
    goodput : Stats.Meter.t;
    latency : Obs.Histogram.t;
    mutable committed_heights : int;
    mutable safety_ok : bool;
  }

  let create ~f =
    { quorum = f + 1;
      heights = Hashtbl.create 1024;
      outstanding = Hashtbl.create 1024;
      confirms = Stats.Meter.create ();
      goodput = Stats.Meter.create ();
      latency = Obs.Histogram.create ();
      committed_heights = 0;
      safety_ok = true }

  let offer t (b : Workload.Request.t) = Hashtbl.replace t.outstanding b.id ()

  let confirm t ~at (b : Workload.Request.t) =
    if Hashtbl.mem t.outstanding b.id then begin
      Hashtbl.remove t.outstanding b.id;
      Stats.Meter.add t.confirms ~at b.count;
      Stats.Meter.add t.goodput ~at (Workload.Request.payload_bytes b);
      Obs.Histogram.record t.latency (Int64.to_int Sim_time.(at - b.born))
    end

  let commit t ~at ~height ~digest batches =
    let h =
      match Hashtbl.find_opt t.heights height with
      | Some h ->
        if not (Crypto.Hash.equal h.digest digest) then t.safety_ok <- false;
        h
      | None ->
        let h = { digest; executions = 0 } in
        Hashtbl.add t.heights height h;
        h
    in
    h.executions <- h.executions + 1;
    if h.executions = t.quorum then begin
      t.committed_heights <- t.committed_heights + 1;
      List.iter (confirm t ~at) batches
    end

  let confirmed t = Stats.Meter.total t.confirms
  let committed_heights t = t.committed_heights
  let safety_ok t = t.safety_ok
end

type 'msg ctx = {
  engine : Engine.t;
  network : 'msg Net.Network.t;
  key_rng : Rng.t;
  leader : Net.Node_id.t;
  is_silent : Net.Node_id.t -> bool;
  commit : height:int -> digest:Crypto.Hash.t -> Workload.Request.t list -> unit;
}

type clients = { targets : Net.Node_id.t list; submit : Workload.Generator.submit }

let default_tick load =
  if load <= 0. then Sim_time.ms 20
  else
    Sim_time.max (Sim_time.us 100) (Sim_time.min (Sim_time.ms 20) (Sim_time.of_sec (32. /. load)))

let run sp ~n ~f ~payload ~meta ?tick start =
  let engine = Engine.create ~seed:sp.seed () in
  let network = Net.Network.create engine ~n ~meta ~link:sp.link in
  let key_rng = Rng.split (Engine.rng engine) in
  let leader = 0 in
  (* Silent replicas are picked from the back so the leader stays honest. *)
  let is_silent id = id >= n - sp.silent in
  let tally = Tally.create ~f in
  let commit ~height ~digest batches =
    Tally.commit tally ~at:(Engine.now engine) ~height ~digest batches
  in
  let clients = start { engine; network; key_rng; leader; is_silent; commit } in
  let gen =
    Workload.Generator.start engine ~rate:sp.load ~payload ~targets:clients.targets
      ~tick:(match tick with Some t -> t | None -> default_tick sp.load)
      ~inject:(fun ~dst ~size cb -> Net.Network.inject network ~dst ~size ~category:"client-req" cb)
      ~submit:clients.submit ~on_batch:(Tally.offer tally) ~until:sp.duration ()
  in
  ignore (Engine.schedule_at engine ~at:sp.warmup (fun () -> Net.Network.reset_stats network));
  Engine.run ~until:sp.duration engine;
  let window_sec = Sim_time.to_sec Sim_time.(sp.duration - sp.warmup) in
  let acct = Net.Network.stats network leader in
  let sent = Net.Bandwidth.total acct Net.Bandwidth.Sent in
  let received = Net.Bandwidth.total acct Net.Bandwidth.Received in
  { n;
    offered = Workload.Generator.offered gen;
    confirmed = Tally.confirmed tally;
    throughput = Stats.Meter.rate tally.confirms ~from_:sp.warmup ~until:sp.duration;
    goodput_bps = 8. *. Stats.Meter.rate tally.goodput ~from_:sp.warmup ~until:sp.duration;
    latency = Obs.Histogram.snapshot tally.latency;
    leader_sent_bytes = sent;
    leader_received_bytes = received;
    leader_bps =
      (if window_sec <= 0. then 0. else 8. *. float_of_int (sent + received) /. window_sec);
    window_sec;
    committed_heights = Tally.committed_heights tally;
    safety_ok = Tally.safety_ok tally }

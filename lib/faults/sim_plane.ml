open Sim

let default_load n = if n >= 64 then 1200. else if n >= 16 then 800. else 400.

let config (sc : Scenario.t) =
  Core.Config.make ~n:sc.Scenario.n ~alpha:10 ~bft_size:2 ~k:16
    ?checkpoint_interval:sc.Scenario.checkpoint_interval ~payload:64
    ~datablock_timeout:(Sim_time.ms 200) ~proposal_timeout:(Sim_time.ms 300)
    ~view_timeout:(Sim_time.s 1) ~fetch_grace:(Sim_time.ms 200)
    ~cost:Crypto.Cost_model.free
    ~leader_generates_datablocks:sc.Scenario.leader_generates
    ?mempool_cap:sc.Scenario.mempool_cap ()

let run ?(seed = 42L) ?load (sc : Scenario.t) =
  let t0 = Unix.gettimeofday () in
  let cfg = config sc in
  let n = sc.Scenario.n in
  let load =
    match load with Some l -> l | None -> Option.value sc.Scenario.load ~default:(default_load n)
  in
  let heal = Scenario.last_event_at sc in
  let duration = Scenario.duration sc in
  let load_until = Sim_time.(heal + Int64.div sc.Scenario.settle 2L) in
  (* Durable stores only when the scenario needs them (a [Restart] event
     or a torn-tail fault): [None] keeps the hot path — and thus every
     pre-existing scenario's trace — byte-identical to the null sink. *)
  let needs_store =
    sc.Scenario.torn_tail <> []
    || List.exists
         (fun (e : Scenario.event) ->
           match e.Scenario.action with Scenario.Restart _ -> true | _ -> false)
         sc.Scenario.events
  in
  let stores =
    if not needs_store then None
    else
      Some
        (Array.init n (fun i ->
             let s = Core.Store.mem () in
             match List.assoc_opt i sc.Scenario.torn_tail with
             | None -> s
             | Some drop -> Core.Store.with_torn_tail ~drop s))
  in
  let spec =
    Core.Runner.spec ~cfg ~seed ~load ~duration ~warmup:(Sim_time.s 1)
      ~load_until ~byzantine:sc.Scenario.byzantine
      ~client_resend_timeout:(Sim_time.s 1) ?stores ~trace:true ()
  in
  let t = Core.Runner.create spec in
  let engine = Core.Runner.engine t in
  let network = Core.Runner.network t in
  let trace = Core.Runner.trace t in
  let inj = Injector.create ~n ~rng:(Rng.split (Engine.rng engine)) in
  Net.Network.set_fault_hook network (fun ~now:_ ~src ~dst msg -> Injector.decide inj ~src ~dst msg);
  List.iter
    (fun (e : Scenario.event) ->
      ignore
        (Engine.schedule_at engine ~at:e.Scenario.at (fun () ->
             Trace.recordf trace ~at:(Engine.now engine) ~tag:"chaos" "%a"
               Scenario.pp_action e.Scenario.action;
             match e.Scenario.action with
             | Scenario.Crash id -> Net.Network.set_down network id true
             | Scenario.Revive id -> Net.Network.set_down network id false
             | Scenario.Restart id -> Core.Runner.restart_replica t id
             | link_fault -> ignore (Injector.apply inj link_fault : bool))
          : Engine.handle))
    sc.Scenario.events;
  let driver = Core.Runner.driver t in
  Core.Runner.run_until t heal;
  let confirmed_at_heal = Core.Driver.confirmed driver in
  Core.Runner.run_until t duration;
  Net.Network.clear_fault_hook network;
  Oracle.judge ~scenario:sc ~plane:"sim" ~seed ~confirmed_at_heal
    ~wall_sec:(Unix.gettimeofday () -. t0) ~trace driver

open Sim

let cfg_of (sc : Scenario.t) =
  Core.Config.make ~n:sc.Scenario.n ~alpha:10 ~bft_size:2 ~k:16
    ?checkpoint_interval:sc.Scenario.checkpoint_interval ~payload:64
    ~datablock_timeout:(Sim_time.ms 20) ~proposal_timeout:(Sim_time.ms 30)
    ~view_timeout:(Sim_time.ms 1500) ~fetch_grace:(Sim_time.ms 200)
    ~cost:Crypto.Cost_model.free
    ~leader_generates_datablocks:sc.Scenario.leader_generates
    ?mempool_cap:sc.Scenario.mempool_cap ()

let run ?(seed = 42L) ?load ?data_root ?metrics_out (sc : Scenario.t) =
  let t0 = Unix.gettimeofday () in
  let cfg = cfg_of sc in
  let n = sc.Scenario.n in
  let load = match load with Some l -> l | None -> Option.value sc.Scenario.load ~default:800. in
  let trace = Trace.create ~enabled:true () in
  (* With a [data_root], node WAL directories live under
     <root>/<scenario>/ and survive a failing run as artifacts; a
     passing run deletes them. Without one the cluster's own temp dir is
     used and always removed in [close]. *)
  let data_dir =
    Option.map (fun root -> Filename.concat root sc.Scenario.name) data_root
  in
  let store_wrap =
    match sc.Scenario.torn_tail with
    | [] -> None
    | faults ->
      Some
        (fun id sink ->
          match List.assoc_opt id faults with
          | None -> sink
          | Some drop -> Core.Store.with_torn_tail ~drop sink)
  in
  let cl =
    Transport.Cluster.create ~cfg ~load ~trace ~byzantine:sc.Scenario.byzantine
      ~client_resend:(Sim_time.ms 500) ?data_dir ?store_wrap ?metrics_out ()
  in
  let outcome =
  Fun.protect
    ~finally:(fun () -> Transport.Cluster.close cl)
    (fun () ->
      let loop = Transport.Cluster.loop cl in
      let driver = Transport.Cluster.driver cl in
      let inj = Injector.create ~n ~rng:(Rng.create seed) in
      for src = 0 to n - 1 do
        Transport.Cluster.set_fault_filter cl src
          (Some (fun ~dst msg -> Injector.decide inj ~src ~dst msg))
      done;
      List.iter
        (fun (e : Scenario.event) ->
          ignore
            (Transport.Loop.schedule loop ~delay:e.Scenario.at (fun () ->
                 Trace.recordf trace ~at:(Transport.Loop.now loop) ~tag:"chaos"
                   "%a" Scenario.pp_action e.Scenario.action;
                 match e.Scenario.action with
                 | Scenario.Crash id -> Transport.Cluster.set_replica_down cl id true
                 | Scenario.Revive id ->
                   Transport.Cluster.set_replica_down cl id false
                 | Scenario.Restart id -> Transport.Cluster.restart_replica cl id
                 | link_fault -> ignore (Injector.apply inj link_fault : bool))
              : Transport.Loop.handle))
        sc.Scenario.events;
      Transport.Cluster.start_load cl;
      let start_ns = Transport.Loop.now_ns loop in
      let heal_ns = start_ns + Int64.to_int (Scenario.last_event_at sc) in
      Transport.Cluster.run_while cl (fun _ -> Transport.Loop.now_ns loop < heal_ns);
      let confirmed_at_heal = Transport.Cluster.confirmed cl in
      (* Wall-clock is expensive: once progress has resumed and every
         expectation the oracle will check already holds, stop burning
         real seconds. *)
      let obligations_met () =
        Transport.Cluster.confirmed cl > confirmed_at_heal + 100
        && Oracle.ok (Oracle.expectations ~scenario:sc driver)
      in
      let deadline_ns = start_ns + Int64.to_int (Scenario.duration sc) in
      Transport.Cluster.run_while cl (fun _ ->
          Transport.Loop.now_ns loop < deadline_ns && not (obligations_met ()));
      Transport.Cluster.stop_load cl;
      let drain_ns = Transport.Loop.now_ns loop + Int64.to_int (Sim_time.s 5) in
      Transport.Cluster.run_while cl (fun cl ->
          Transport.Loop.now_ns loop < drain_ns
          && not (Transport.Cluster.state_converged cl));
      Oracle.judge ~scenario:sc ~plane:"tcp" ~seed ~confirmed_at_heal
        ~wall_sec:(Unix.gettimeofday () -. t0) ~trace driver)
  in
  (match data_dir with
  | Some dir when Oracle.outcome_ok outcome ->
    Store.Store_file.remove_dir dir
  | _ -> ());
  outcome

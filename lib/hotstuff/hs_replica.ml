open Sim

module Requests = struct
  type pool = Core.Mempool.t
  type item = Workload.Request.t

  let tag = "hs"
  let encode = Workload.Request.encode
  let wire_bytes = Workload.Request.wire_bytes
  let payload_bytes = Workload.Request.payload_bytes
  let pending = Core.Mempool.pending_requests
  let take pool ~max = Core.Mempool.take pool ~target:max
  let missing _ _ = []
  let batches _ items = Some items
end

module C = Chain.Make (Requests)

let spec ~cfg = Baseline.spec ~cfg ~f:cfg.Hs_config.f

let run (sp : Hs_config.t Baseline.spec) =
  let cfg = sp.cfg in
  let n = cfg.Hs_config.n in
  Baseline.run sp ~n ~f:cfg.f ~payload:cfg.payload ~meta:Chain.meta
    (fun (ctx : Requests.item Chain.msg Baseline.ctx) ->
      let tsetup, tkeys = Crypto.Threshold.keygen ctx.key_rng ~threshold:(2 * cfg.f) ~parties:n in
      let replicas =
        Array.init n (fun id ->
            let silent = ctx.is_silent id in
            let mempool = Core.Mempool.create () in
            let chain =
              C.create ~engine:ctx.engine ~network:ctx.network ~wrap:Fun.id ~id ~leader:ctx.leader
                ~f:cfg.f ~tsetup ~tkey:tkeys.(id) ~silent
                ~cpu:(Net.Cpu.create ctx.engine ~cores:cfg.cores)
                ~cost:cfg.cost ~block_size:cfg.batch_size ~propose_timeout:cfg.propose_timeout
                ~pool:mempool ~commit:ctx.commit
            in
            Net.Network.set_handler ctx.network id (fun ~src:_ m ->
                C.handle chain m ~try_vote:(fun block justify ->
                    ignore (C.try_vote chain block justify)));
            (silent, mempool, chain))
      in
      (* The leader also proposes partial blocks on the propose timeout. *)
      let leader_silent, _, leader_chain = replicas.(ctx.leader) in
      let rec partial_tick () =
        if not leader_silent then begin
          C.maybe_propose leader_chain;
          ignore (Engine.schedule ctx.engine ~delay:cfg.propose_timeout partial_tick)
        end
      in
      partial_tick ();
      (* libhotstuff clients send individual commands to the leader. *)
      { targets = [ ctx.leader ];
        submit =
          (fun ~target b ->
            let silent, mempool, chain = replicas.(target) in
            if not silent then begin
              Core.Mempool.add mempool b;
              C.maybe_propose chain
            end) })

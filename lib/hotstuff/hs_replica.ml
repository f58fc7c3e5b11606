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

let start (cfg : Hs_config.t) (ctx : Requests.item Chain.msg Baseline.ctx) =
  let tsetup, tkeys = Crypto.Threshold.keygen ctx.key_rng ~threshold:(2 * cfg.f) ~parties:cfg.n in
  let replicas =
    Array.init cfg.n (fun id ->
        let mempool = Core.Mempool.create () in
        let chain =
          C.create ~engine:ctx.engine ~network:ctx.network ~wrap:Fun.id ~id ~leader:ctx.leader
            ~f:cfg.f ~tsetup ~tkey:tkeys.(id) ~silent:(ctx.is_silent id)
            ~cpu:(Net.Cpu.create ctx.engine ~cores:cfg.cores)
            ~cost:cfg.cost ~block_size:cfg.batch_size ~propose_timeout:cfg.propose_timeout
            ~pool:mempool ~commit:ctx.commit
        in
        Net.Network.set_handler ctx.network id (fun ~src:_ m ->
            C.handle chain m ~try_vote:(fun block justify ->
                ignore (C.try_vote chain block justify)));
        (mempool, chain))
  in
  (* libhotstuff clients send individual commands to the leader, which
     is never silent. *)
  let mempool, chain = replicas.(ctx.leader) in
  Baseline.
    { targets = [ ctx.leader ];
      submit =
        (fun ~target:_ b ->
          Core.Mempool.add mempool b;
          C.maybe_propose chain) }

let run (sp : Hs_config.t Baseline.spec) =
  let cfg = sp.cfg in
  Baseline.run sp ~n:cfg.Hs_config.n ~f:cfg.f ~payload:cfg.payload ~meta:Chain.meta (start cfg)

open Sim
module Ts = Crypto.Threshold
module Hash = Crypto.Hash

type cfg = {
  n : int;
  f : int;
  alpha : int;
  links_per_block : int;
  payload : int;
  datablock_timeout : Sim_time.span;
  proposal_timeout : Sim_time.span;
  cost : Crypto.Cost_model.t;
  cores : int;
}

let make_cfg ~n ?alpha ?links_per_block ?(payload = 128)
    ?(datablock_timeout = Sim_time.ms 500) ?(proposal_timeout = Sim_time.ms 500)
    ?(cost = Crypto.Cost_model.paper) ?(cores = 4) () =
  if n < 4 then invalid_arg "Chained_leopard.make_cfg: n must be at least 4";
  let default_alpha, default_bft = Core.Config.paper_batch_sizes ~n in
  { n;
    f = (n - 1) / 3;
    alpha = Option.value alpha ~default:default_alpha;
    links_per_block = Option.value links_per_block ~default:(max 1 (default_bft / 4));
    payload;
    datablock_timeout;
    proposal_timeout;
    cost;
    cores }

module Links = struct
  type pool = Core.Datablock_pool.t
  type item = Hash.t

  let tag = "cl"
  let encode = Hash.raw
  let wire_bytes _ = Hash.size_bytes
  let payload_bytes _ = 0
  let pending = Core.Datablock_pool.pending
  let take pool ~max = List.map Core.Datablock.hash (Core.Datablock_pool.take_pending pool ~max)
  let missing = Core.Datablock_pool.missing_links

  (* All links present: availability was checked before voting, and
     2f+1 voters vouch for the data. *)
  let batches pool links =
    let dbs = List.filter_map (Core.Datablock_pool.find pool) links in
    if List.length dbs = List.length links then
      Some (List.concat_map (fun (db : Core.Datablock.t) -> db.batches) dbs)
    else None
end

module C = Hotstuff.Chain.Make (Links)

type block = Links.item Hotstuff.Chain.block

type msg =
  | Chain of Links.item Hotstuff.Chain.msg
  | Datablock_msg of Core.Datablock.t
  | Fetch of { hash : Hash.t }
  | Fetch_reply of Core.Datablock.t

let wire_size = function
  | Chain m -> Hotstuff.Chain.wire_size m
  | Datablock_msg db | Fetch_reply db -> Core.Datablock.wire_size db
  | Fetch _ -> 24 + Hash.size_bytes

let category = function
  | Chain m -> Hotstuff.Chain.category m
  | Datablock_msg _ | Fetch_reply _ -> "datablock"
  | Fetch _ -> "fetch"

let priority = function
  | Datablock_msg _ | Fetch_reply _ -> Net.Nic.Low
  | Chain _ | Fetch _ -> Net.Nic.High

let meta = Net.Network.{ size = wire_size; category; priority }

(* ------------------------------------------------------------------- *)

type replica = {
  chain : msg C.t;
  engine : Engine.t;
  network : msg Net.Network.t;
  cfg : cfg;
  id : Net.Node_id.t;
  leader : Net.Node_id.t;
  sk : Crypto.Signature.private_key;
  silent : bool;
  cpu : Net.Cpu.t;
  mempool : Core.Mempool.t;
  pool : Core.Datablock_pool.t;
  pks : Crypto.Signature.public_key array;
  mutable db_counter : int;
  mutable last_partial_pack : Sim_time.t;
  waiting : (int, block * Hotstuff.Chain.qc option) Hashtbl.t;  (* proposals awaiting datablocks *)
  mutable fetch_inflight : Hash.Set.t;
}

let is_leader r = Net.Node_id.equal r.id r.leader
let active r = not r.silent
let now r = Engine.now r.engine
let with_cpu r cost f = Net.Cpu.submit r.cpu ~cost f

(* -- datablock plane (Algorithm 1, unchanged from Leopard) ----------- *)

let send_datablock r batches =
  let counter = r.db_counter in
  r.db_counter <- counter + 1;
  let db = Core.Datablock.create ~sk:r.sk ~creator:r.id ~counter ~now:(now r) batches in
  let cost =
    Sim_time.( + ) r.cfg.cost.sign
      (Crypto.Cost_model.hash_cost r.cfg.cost ~bytes_len:db.Core.Datablock.payload_bytes)
  in
  with_cpu r cost (fun () ->
      if active r then begin
        ignore (Core.Datablock_pool.add r.pool db);
        Net.Network.multicast r.network ~src:r.id (Datablock_msg db)
      end)

let maybe_pack r =
  if active r && not (is_leader r) then begin
    if Core.Mempool.has_at_least r.mempool r.cfg.alpha then begin
      let batches = Core.Mempool.take r.mempool ~target:r.cfg.alpha in
      if batches <> [] then send_datablock r batches
    end
    else if
      Int64.compare r.cfg.datablock_timeout 0L > 0
      && (match Core.Mempool.oldest_age r.mempool ~now:(now r) with
          | Some age -> Sim_time.compare age r.cfg.datablock_timeout >= 0
          | None -> false)
      && Sim_time.compare (now r) r.last_partial_pack > 0
    then begin
      r.last_partial_pack <- Sim_time.( + ) (now r) r.cfg.datablock_timeout;
      let batches = Core.Mempool.take r.mempool ~target:max_int in
      if batches <> [] then send_datablock r batches
    end
  end

(* -- chain plane: the shared chain, waiting for missing datablocks -- *)

let try_vote r (block : block) justify =
  let h = block.height in
  match C.try_vote r.chain block justify with
  | Hotstuff.Chain.Stored ->
    Hashtbl.remove r.waiting h;
    List.iter (Core.Datablock_pool.mark_linked r.pool) block.items
  | Hotstuff.Chain.Refused -> ()
  | Hotstuff.Chain.Waiting ->
    Hashtbl.replace r.waiting h (block, justify);
    ignore
      (Engine.schedule r.engine ~delay:(Sim_time.ms 100) (fun () ->
           if active r && Hashtbl.mem r.waiting h then
             List.iter
               (fun hash ->
                 if not (Hash.Set.mem hash r.fetch_inflight) then begin
                   r.fetch_inflight <- Hash.Set.add hash r.fetch_inflight;
                   Net.Network.send r.network ~src:r.id ~dst:r.leader (Fetch { hash })
                 end)
               (Core.Datablock_pool.missing_links r.pool block.items)))

(* Each waiting proposal whose datablocks are all here is retried once:
   it leaves [waiting] when its retry is scheduled, and [try_vote] puts
   it back if it must still wait. *)
let retry_waiting r =
  if Hashtbl.length r.waiting > 0 then begin
    let ready =
      Hashtbl.fold
        (fun h ((block : block), justify) acc ->
          if Core.Datablock_pool.has_all_links r.pool block.items then (h, block, justify) :: acc
          else acc)
        r.waiting []
    in
    List.iter
      (fun (h, block, justify) ->
        Hashtbl.remove r.waiting h;
        with_cpu r r.cfg.cost.tsig_share (fun () -> if active r then try_vote r block justify))
      ready
  end

let handle r ~src m =
  if active r then
    match m with
    | Datablock_msg db | Fetch_reply db ->
      let cost =
        Sim_time.( + ) r.cfg.cost.verify
          (Crypto.Cost_model.hash_cost r.cfg.cost ~bytes_len:db.Core.Datablock.payload_bytes)
      in
      with_cpu r cost (fun () ->
          if active r && Core.Datablock.verify ~pks:r.pks db then begin
            r.fetch_inflight <- Hash.Set.remove (Core.Datablock.hash db) r.fetch_inflight;
            match Core.Datablock_pool.add r.pool db with
            | Core.Datablock_pool.Accepted ->
              retry_waiting r;
              C.maybe_propose r.chain
            | Core.Datablock_pool.Duplicate | Core.Datablock_pool.Executed
            | Core.Datablock_pool.Equivocation _ ->
              retry_waiting r
          end)
    | Chain m -> C.handle r.chain m ~try_vote:(try_vote r)
    | Fetch { hash } -> (
        match Core.Datablock_pool.find r.pool hash with
        | Some db -> Net.Network.send r.network ~src:r.id ~dst:src (Fetch_reply db)
        | None -> ())

let submit r b =
  if active r then begin
    Core.Mempool.add r.mempool b;
    maybe_pack r
  end

let rec tick r =
  if active r then begin
    maybe_pack r;
    C.maybe_propose r.chain;
    let base =
      if Int64.compare r.cfg.datablock_timeout 0L > 0 then r.cfg.datablock_timeout
      else Sim_time.ms 500
    in
    ignore (Engine.schedule r.engine ~delay:base (fun () -> tick r))
  end

(* ------------------------------------------------------------------- *)

let spec ~cfg = Baseline.spec ~cfg ~f:cfg.f

let run (sp : cfg Baseline.spec) =
  let cfg = sp.cfg in
  let n = cfg.n in
  let client_tick = if n >= 128 then Sim_time.ms 100 else Sim_time.ms 20 in
  Baseline.run sp ~n ~f:cfg.f ~payload:cfg.payload ~meta ~tick:client_tick (fun (ctx : msg Baseline.ctx) ->
      let keys = Array.init n (fun _ -> Crypto.Signature.keygen ctx.key_rng) in
      let pks = Array.map fst keys in
      let tsetup, tkeys = Ts.keygen ctx.key_rng ~threshold:(2 * cfg.f) ~parties:n in
      let replicas =
        Array.init n (fun id ->
            let silent = ctx.is_silent id in
            let cpu = Net.Cpu.create ctx.engine ~cores:cfg.cores in
            let pool = Core.Datablock_pool.create () in
            let chain =
              C.create ~engine:ctx.engine ~network:ctx.network ~wrap:(fun m -> Chain m) ~id
                ~leader:ctx.leader ~f:cfg.f ~tsetup ~tkey:tkeys.(id) ~silent ~cpu ~cost:cfg.cost
                ~block_size:cfg.links_per_block ~propose_timeout:cfg.proposal_timeout ~pool
                ~commit:ctx.commit
            in
            let r =
              { chain;
                engine = ctx.engine;
                network = ctx.network;
                cfg;
                id;
                leader = ctx.leader;
                sk = snd keys.(id);
                silent;
                cpu;
                mempool = Core.Mempool.create ();
                pool;
                pks;
                db_counter = 1;
                last_partial_pack = Sim_time.zero;
                waiting = Hashtbl.create 16;
                fetch_inflight = Hash.Set.empty }
            in
            Net.Network.set_handler ctx.network id (fun ~src m -> handle r ~src m);
            r)
      in
      Array.iter (fun r -> if active r then tick r) replicas;
      (* Clients submit to the non-leader replicas, which pack datablocks. *)
      let targets =
        List.filter
          (fun id -> (not (Net.Node_id.equal id ctx.leader)) && not (ctx.is_silent id))
          (List.init n Fun.id)
      in
      { targets; submit = (fun ~target b -> submit replicas.(target) b) })

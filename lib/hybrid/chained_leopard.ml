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

let quorum cfg = (2 * cfg.f) + 1

type block = { height : int; parent : Hash.t; links : Hash.t list; hash_memo : Hash.t }

let genesis_hash = Hash.of_string "chained-leopard.genesis"

let make_block ~height ~parent ~links =
  { height;
    parent;
    links;
    hash_memo =
      Hash.of_strings
        (Printf.sprintf "clblock:%d" height :: Hash.raw parent :: List.map Hash.raw links) }

let block_hash b = b.hash_memo
let block_wire b = 24 + Hash.size_bytes + (Hash.size_bytes * List.length b.links)

type qc = { qc_height : int; qc_block : Hash.t; qc_proof : Ts.aggregate }

type msg =
  | Datablock_msg of Core.Datablock.t
  | Proposal of { block : block; justify : qc option }
  | Vote of { height : int; block_hash : Hash.t; share : Ts.share }
  | Fetch of { hash : Hash.t }
  | Fetch_reply of Core.Datablock.t

let vote_payload ~height ~block_hash =
  Printf.sprintf "cl.vote:%d:%s" height (Hash.raw block_hash)

let wire_size = function
  | Datablock_msg db | Fetch_reply db -> Core.Datablock.wire_size db
  | Proposal { block; justify } ->
    block_wire block
    + (match justify with Some _ -> 8 + Hash.size_bytes + Ts.aggregate_size_bytes | None -> 1)
  | Vote _ -> 24 + Hash.size_bytes + Ts.share_size_bytes
  | Fetch _ -> 24 + Hash.size_bytes

let category = function
  | Datablock_msg _ | Fetch_reply _ -> "datablock"
  | Proposal _ -> "proposal"
  | Vote _ -> "vote"
  | Fetch _ -> "fetch"

let priority = function
  | Datablock_msg _ | Fetch_reply _ -> Net.Nic.Low
  | Proposal _ | Vote _ | Fetch _ -> Net.Nic.High

let meta = Net.Network.{ size = wire_size; category; priority }

(* ------------------------------------------------------------------- *)

type collector = { mutable shares : Ts.share list; mutable indices : int list; mutable fired : bool }

type replica = {
  engine : Engine.t;
  network : msg Net.Network.t;
  cfg : cfg;
  id : Net.Node_id.t;
  leader : Net.Node_id.t;
  sk : Crypto.Signature.private_key;
  tsetup : Ts.setup;
  tkey : Ts.member_key;
  silent : bool;
  cpu : Net.Cpu.t;
  mempool : Core.Mempool.t;
  pool : Core.Datablock_pool.t;
  pks : Crypto.Signature.public_key array;
  blocks : (int, block) Hashtbl.t;
  mutable voted_up_to : int;
  votes : (int, collector) Hashtbl.t;
  mutable high_qc : qc option;
  mutable next_height : int;
  mutable committed_up_to : int;
  mutable commit_target : int;   (* highest height known committable *)
  mutable db_counter : int;
  mutable last_proposal : Sim_time.t;
  mutable last_partial_pack : Sim_time.t;
  waiting : (int, block * qc option) Hashtbl.t;  (* proposals awaiting datablocks *)
  mutable fetch_inflight : Hash.Set.t;
  on_commit : height:int -> block -> Core.Datablock.t list -> unit;
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

(* -- chain plane (chained HotStuff over datablock links) -------------- *)

let commit_through r target =
  let rec go h =
    if h <= target then (
      match Hashtbl.find_opt r.blocks h with
      | None -> ()
      | Some block ->
        let dbs = List.filter_map (Core.Datablock_pool.find r.pool) block.links in
        (* all links present: availability was checked before voting, and
           2f+1 voters vouch for the data *)
        if List.length dbs = List.length block.links then begin
          r.committed_up_to <- h;
          List.iter
            (fun (db : Core.Datablock.t) ->
              List.iter Workload.Request.mark_confirmed db.Core.Datablock.batches)
            dbs;
          r.on_commit ~height:h block dbs;
          go (h + 1)
        end)
  in
  go (r.committed_up_to + 1)

let ready_to_propose r =
  r.next_height = 1
  || (match r.high_qc with Some qc -> qc.qc_height = r.next_height - 1 | None -> false)

let rec maybe_propose r =
  if active r && is_leader r && ready_to_propose r then begin
    let pending = Core.Datablock_pool.pending r.pool in
    let full = pending >= r.cfg.links_per_block in
    let timed_out =
      pending > 0
      && Sim_time.compare Sim_time.(now r - r.last_proposal) r.cfg.proposal_timeout >= 0
    in
    if full || timed_out then begin
      r.last_proposal <- now r;
      let dbs = Core.Datablock_pool.take_pending r.pool ~max:r.cfg.links_per_block in
      if dbs <> [] then begin
        let links = List.map Core.Datablock.hash dbs in
        let height = r.next_height in
        let parent = match r.high_qc with Some qc -> qc.qc_block | None -> genesis_hash in
        let block = make_block ~height ~parent ~links in
        let justify = r.high_qc in
        r.next_height <- height + 1;
        Hashtbl.replace r.blocks height block;
        with_cpu r r.cfg.cost.tsig_share (fun () ->
            if active r then begin
              Net.Network.multicast r.network ~src:r.id (Proposal { block; justify });
              record_vote r ~height ~block_hash:(block_hash block)
                ~share:(Ts.sign_share r.tkey (vote_payload ~height ~block_hash:(block_hash block)))
            end)
      end
    end
  end

and record_vote r ~height ~block_hash ~share =
  if Ts.verify_share r.tsetup share (vote_payload ~height ~block_hash) then begin
    let c =
      match Hashtbl.find_opt r.votes height with
      | Some c -> c
      | None ->
        let c = { shares = []; indices = []; fired = false } in
        Hashtbl.add r.votes height c;
        c
    in
    let idx = Ts.share_index share in
    if (not c.fired) && not (List.mem idx c.indices) then begin
      c.shares <- share :: c.shares;
      c.indices <- idx :: c.indices;
      if List.length c.indices >= quorum r.cfg then begin
        c.fired <- true;
        let shares = c.shares in
        c.shares <- [];
        let cost = Crypto.Cost_model.combine_cost r.cfg.cost ~shares:(List.length shares) in
        with_cpu r cost (fun () ->
            if active r then
              match Ts.combine r.tsetup (vote_payload ~height ~block_hash) shares with
              | None -> ()
              | Some proof ->
                r.high_qc <- Some { qc_height = height; qc_block = block_hash; qc_proof = proof };
                r.commit_target <- max r.commit_target (height - 2);
                commit_through r r.commit_target;
                maybe_propose r)
      end
    end
  end

let try_vote r block justify =
  let h = block.height in
  let bh = block_hash block in
  let justify_ok =
    match justify with
    | None -> h = 1
    | Some qc ->
      qc.qc_height = h - 1
      && Ts.verify r.tsetup qc.qc_proof
           (vote_payload ~height:qc.qc_height ~block_hash:qc.qc_block)
  in
  if justify_ok then begin
    (* A justify QC for h-1 makes h-3 committable (three-chain). *)
    (match justify with
     | Some qc -> r.commit_target <- max r.commit_target (qc.qc_height - 2)
     | None -> ());
    let missing = Core.Datablock_pool.missing_links r.pool block.links in
    if missing = [] then begin
      Hashtbl.remove r.waiting h;
      Hashtbl.replace r.blocks h block;
      List.iter (Core.Datablock_pool.mark_linked r.pool) block.links;
      commit_through r r.commit_target;
      if h > r.voted_up_to then begin
        r.voted_up_to <- h;
        let share = Ts.sign_share r.tkey (vote_payload ~height:h ~block_hash:bh) in
        Net.Network.send r.network ~src:r.id ~dst:r.leader
          (Vote { height = h; block_hash = bh; share })
      end
    end
    else begin
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
                 (Core.Datablock_pool.missing_links r.pool block.links)))
    end
  end

let retry_waiting r =
  if Hashtbl.length r.waiting > 0 then begin
    let entries = Hashtbl.fold (fun h e acc -> (h, e) :: acc) r.waiting [] in
    List.iter
      (fun (_, (block, justify)) ->
        if Core.Datablock_pool.missing_links r.pool block.links = [] then
          with_cpu r r.cfg.cost.tsig_share (fun () -> if active r then try_vote r block justify))
      entries
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
              maybe_propose r
            | Core.Datablock_pool.Duplicate | Core.Datablock_pool.Executed
            | Core.Datablock_pool.Equivocation _ ->
              retry_waiting r
          end)
    | Proposal { block; justify } ->
      let cost = Sim_time.( + ) r.cfg.cost.tvrf_aggregate r.cfg.cost.tsig_share in
      with_cpu r cost (fun () -> if active r then try_vote r block justify)
    | Vote { height; block_hash; share } ->
      if is_leader r then
        with_cpu r r.cfg.cost.tvrf_share (fun () ->
            if active r then record_vote r ~height ~block_hash ~share)
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
    maybe_propose r;
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
      let on_commit ~height block dbs =
        ctx.commit ~height ~digest:(block_hash block)
          (List.concat_map (fun (db : Core.Datablock.t) -> db.batches) dbs)
      in
      let replicas =
        Array.init n (fun id ->
            let r =
              { engine = ctx.engine;
                network = ctx.network;
                cfg;
                id;
                leader = ctx.leader;
                sk = snd keys.(id);
                tsetup;
                tkey = tkeys.(id);
                silent = ctx.is_silent id;
                cpu = Net.Cpu.create ctx.engine ~cores:cfg.cores;
                mempool = Core.Mempool.create ();
                pool = Core.Datablock_pool.create ();
                pks;
                blocks = Hashtbl.create 256;
                voted_up_to = 0;
                votes = Hashtbl.create 64;
                high_qc = None;
                next_height = 1;
                committed_up_to = 0;
                commit_target = 0;
                db_counter = 1;
                last_proposal = Sim_time.zero;
                last_partial_pack = Sim_time.zero;
                waiting = Hashtbl.create 16;
                fetch_inflight = Hash.Set.empty;
                on_commit }
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

open Sim
module Ts = Crypto.Threshold
open Hs_types

(* Minimal share collector (votes dedup by member index). *)
type collector = { mutable shares : Ts.share list; mutable indices : int list; mutable fired : bool }

let collector () = { shares = []; indices = []; fired = false }

type t = {
  engine : Engine.t;
  network : msg Net.Network.t;
  cfg : Hs_config.t;
  id : Net.Node_id.t;
  leader : Net.Node_id.t;
  tsetup : Ts.setup;
  tkey : Ts.member_key;
  silent : bool;
  on_commit : height:int -> block -> unit;
  cpu : Net.Cpu.t;
  mempool : Workload.Request.t Queue.t;
  mutable pending_reqs : int;
  blocks : (int, block) Hashtbl.t;
  mutable voted_up_to : int;
  votes : (int, collector) Hashtbl.t;       (* leader side *)
  mutable high_qc : qc option;
  mutable next_height : int;                (* leader side *)
  mutable committed_up_to : int;
  mutable last_proposal : Sim_time.t;
}

let is_leader t = Net.Node_id.equal t.id t.leader
let active t = not t.silent
let now t = Engine.now t.engine
let with_cpu t cost f = Net.Cpu.submit t.cpu ~cost f

let ack_wire_bytes = 48

let commit_through t target =
  let rec go h =
    if h <= target then (
      match Hashtbl.find_opt t.blocks h with
      | None -> () (* missing body; stop (cannot skip in a chain) *)
      | Some block ->
        t.committed_up_to <- h;
        let batches = ref 0 in
        List.iter
          (fun b ->
            Workload.Request.mark_confirmed b;
            incr batches)
          block.batch;
        if !batches > 0 then
          Net.Network.charge_egress t.network ~src:t.id ~size:(ack_wire_bytes * !batches)
            ~category:"ack";
        t.on_commit ~height:h block;
        go (h + 1))
  in
  go (t.committed_up_to + 1)

(* -- Leader ---------------------------------------------------------- *)

let take_batch t limit =
  let rec go acc got =
    if got >= limit then List.rev acc
    else
      match Queue.peek_opt t.mempool with
      | None -> List.rev acc
      | Some b when Workload.Request.is_confirmed b ->
        ignore (Queue.pop t.mempool);
        t.pending_reqs <- t.pending_reqs - b.Workload.Request.count;
        go acc got
      | Some b ->
        ignore (Queue.pop t.mempool);
        t.pending_reqs <- t.pending_reqs - b.Workload.Request.count;
        go (b :: acc) (got + b.Workload.Request.count)
  in
  go [] 0

let ready_to_propose t =
  t.next_height = 1
  || (match t.high_qc with Some qc -> qc.qc_height = t.next_height - 1 | None -> false)

let rec maybe_propose t =
  if active t && is_leader t && ready_to_propose t then begin
    let full = t.pending_reqs >= t.cfg.Hs_config.batch_size in
    let timed_out =
      t.pending_reqs > 0
      && Sim_time.compare
           Sim_time.(now t - t.last_proposal)
           t.cfg.Hs_config.propose_timeout
         >= 0
    in
    if full || timed_out then begin
      t.last_proposal <- now t;
      let batch = take_batch t t.cfg.Hs_config.batch_size in
      if batch <> [] then begin
        let height = t.next_height in
        let parent =
          match t.high_qc with Some qc -> qc.qc_block | None -> genesis_hash
        in
        let block = make_block ~height ~parent ~batch in
        let justify = t.high_qc in
        t.next_height <- height + 1;
        Hashtbl.replace t.blocks height block;
        let cost =
          Sim_time.( + ) t.cfg.Hs_config.cost.tsig_share
            (Crypto.Cost_model.hash_cost t.cfg.Hs_config.cost ~bytes_len:block.payload_bytes)
        in
        with_cpu t cost (fun () ->
            if active t then begin
              Net.Network.multicast t.network ~src:t.id (Proposal { block; justify });
              (* The leader votes for its own proposal. *)
              on_own_vote t height (block_hash block)
            end)
      end
    end
  end

and on_own_vote t height bh =
  let share = Ts.sign_share t.tkey (vote_payload ~height ~block_hash:bh) in
  record_vote t ~height ~block_hash:bh ~share

and record_vote t ~height ~block_hash ~share =
  if Ts.verify_share t.tsetup share (vote_payload ~height ~block_hash) then begin
    let c =
      match Hashtbl.find_opt t.votes height with
      | Some c -> c
      | None ->
        let c = collector () in
        Hashtbl.add t.votes height c;
        c
    in
    let idx = Ts.share_index share in
    if (not c.fired) && not (List.mem idx c.indices) then begin
      c.shares <- share :: c.shares;
      c.indices <- idx :: c.indices;
      if List.length c.indices >= Hs_config.quorum t.cfg then begin
        c.fired <- true;
        let shares = c.shares in
        c.shares <- [];
        let cost =
          Crypto.Cost_model.combine_cost t.cfg.Hs_config.cost ~shares:(List.length shares)
        in
        with_cpu t cost (fun () ->
            if active t then
              match Ts.combine t.tsetup (vote_payload ~height ~block_hash) shares with
              | None -> ()
              | Some proof ->
                t.high_qc <- Some { qc_height = height; qc_block = block_hash; qc_proof = proof };
                (* Three-chain: QC(h) commits h - 2. *)
                commit_through t (height - 2);
                maybe_propose t)
      end
    end
  end

(* -- Follower -------------------------------------------------------- *)

let on_proposal t block justify =
  let bh = block_hash block in
  let h = block.height in
  let justify_ok =
    match justify with
    | None -> h = 1
    | Some qc ->
      qc.qc_height = h - 1
      && Ts.verify t.tsetup qc.qc_proof
           (vote_payload ~height:qc.qc_height ~block_hash:qc.qc_block)
  in
  if justify_ok && h > t.voted_up_to then begin
    Hashtbl.replace t.blocks h block;
    t.voted_up_to <- h;
    (match justify with
     | Some qc -> commit_through t (qc.qc_height - 2)
     | None -> ());
    let share = Ts.sign_share t.tkey (vote_payload ~height:h ~block_hash:bh) in
    Net.Network.send t.network ~src:t.id ~dst:t.leader (Vote { height = h; block_hash = bh; share })
  end

let handle t ~src:_ m =
  if active t then
    match m with
    | Proposal { block; justify } ->
      let cost =
        Sim_time.( + )
          (Sim_time.( + ) t.cfg.Hs_config.cost.tvrf_aggregate t.cfg.Hs_config.cost.tsig_share)
          (Crypto.Cost_model.hash_cost t.cfg.Hs_config.cost ~bytes_len:block.payload_bytes)
      in
      with_cpu t cost (fun () -> if active t then on_proposal t block justify)
    | Vote { height; block_hash; share } ->
      if is_leader t then
        with_cpu t t.cfg.Hs_config.cost.tvrf_share (fun () ->
            if active t then record_vote t ~height ~block_hash ~share)

let submit t batch =
  if active t then begin
    Queue.push batch t.mempool;
    t.pending_reqs <- t.pending_reqs + batch.Workload.Request.count;
    if is_leader t then maybe_propose t
  end

let rec partial_tick t =
  if active t then begin
    maybe_propose t;
    ignore (Engine.schedule t.engine ~delay:t.cfg.Hs_config.propose_timeout (fun () -> partial_tick t))
  end

let start t = if is_leader t then partial_tick t

let create ~engine ~network ~cfg ~id ~leader ~tsetup ~tkey ~silent ~on_commit =
  let t =
    { engine;
      network;
      cfg;
      id;
      leader;
      tsetup;
      tkey;
      silent;
      on_commit;
      cpu = Net.Cpu.create engine ~cores:cfg.Hs_config.cores;
      mempool = Queue.create ();
      pending_reqs = 0;
      blocks = Hashtbl.create 256;
      voted_up_to = 0;
      votes = Hashtbl.create 64;
      high_qc = None;
      next_height = 1;
      committed_up_to = 0;
      last_proposal = Sim_time.zero }
  in
  Net.Network.set_handler network id (fun ~src m -> handle t ~src m);
  t

let spec ~cfg = Baseline.spec ~cfg ~f:cfg.Hs_config.f

let run (sp : Hs_config.t Baseline.spec) =
  let cfg = sp.cfg in
  let n = cfg.Hs_config.n in
  Baseline.run sp ~n ~f:cfg.Hs_config.f ~payload:cfg.Hs_config.payload ~meta
    (fun (ctx : msg Baseline.ctx) ->
      let tsetup, tkeys =
        Crypto.Threshold.keygen ctx.key_rng ~threshold:(2 * cfg.Hs_config.f) ~parties:n
      in
      let on_commit ~height block =
        ctx.commit ~height ~digest:(block_hash block) block.batch
      in
      let replicas =
        Array.init n (fun id ->
            create ~engine:ctx.engine ~network:ctx.network ~cfg ~id ~leader:ctx.leader ~tsetup
              ~tkey:tkeys.(id) ~silent:(ctx.is_silent id) ~on_commit)
      in
      Array.iter start replicas;
      (* libhotstuff clients send individual commands to the leader. *)
      { targets = [ ctx.leader ]; submit = (fun ~target b -> submit replicas.(target) b) })

open Sim
module Sig = Crypto.Signature
module Hash = Crypto.Hash

type cfg = {
  n : int;
  f : int;
  batch_size : int;
  payload : int;
  window : int;
  propose_timeout : Sim_time.span;
  cost : Crypto.Cost_model.t;
  cores : int;
}

let make_cfg ~n ?(batch_size = 400) ?(payload = 128) ?(window = 8)
    ?(propose_timeout = Sim_time.ms 50) ?(cost = Crypto.Cost_model.ecdsa_only) ?(cores = 4) () =
  if n < 4 then invalid_arg "Pbft.make_cfg: n must be at least 4";
  { n; f = (n - 1) / 3; batch_size; payload; window; propose_timeout; cost; cores }

type block = {
  seq : int;
  batch : Workload.Request.t list;
  payload_bytes : int;
  digest_memo : Hash.t;
  wire_bytes : int;
}

let make_block ~seq ~batch =
  { seq;
    batch;
    payload_bytes = List.fold_left (fun a b -> a + Workload.Request.payload_bytes b) 0 batch;
    digest_memo =
      Hash.of_strings (Printf.sprintf "pbft:%d" seq :: List.map Workload.Request.encode batch);
    wire_bytes =
      24 + Crypto.Signature.size_bytes
      + List.fold_left (fun acc b -> acc + Workload.Request.wire_bytes b) 0 batch }

let block_digest b = b.digest_memo

type msg =
  | Pre_prepare of { block : block; signature : Sig.t }
  | Prepare of { seq : int; digest : Hash.t; voter : Net.Node_id.t; signature : Sig.t }
  | Commit of { seq : int; digest : Hash.t; voter : Net.Node_id.t; signature : Sig.t }

let wire_size = function
  | Pre_prepare { block; _ } -> block.wire_bytes
  | Prepare _ | Commit _ -> 24 + Hash.size_bytes + Sig.size_bytes

let category = function
  | Pre_prepare _ -> "proposal"
  | Prepare _ | Commit _ -> "vote"

let meta = Net.Network.{ size = wire_size; category; priority = (fun _ -> Net.Nic.High) }

let prepare_payload ~seq ~digest = Printf.sprintf "pbft.prep:%d:%s" seq (Hash.raw digest)
let commit_payload ~seq ~digest = Printf.sprintf "pbft.commit:%d:%s" seq (Hash.raw digest)

type inst = {
  mutable block : block option;
  mutable digest : Hash.t option;
  prepares : (Net.Node_id.t, unit) Hashtbl.t;
  commits : (Net.Node_id.t, unit) Hashtbl.t;
  mutable sent_commit : bool;
  mutable executed : bool;
}

type replica = {
  engine : Engine.t;
  network : msg Net.Network.t;
  cfg : cfg;
  id : Net.Node_id.t;
  leader : Net.Node_id.t;
  sk : Sig.private_key;
  pks : Sig.public_key array;
  silent : bool;
  cpu : Net.Cpu.t;
  mempool : Core.Mempool.t;
  instances : (int, inst) Hashtbl.t;
  mutable next_seq : int;          (* leader *)
  mutable executed_up_to : int;    (* highest contiguous executed seq *)
  mutable last_proposal : Sim_time.t;
  on_execute : seq:int -> block -> unit;
}

let inst_of r seq =
  match Hashtbl.find_opt r.instances seq with
  | Some i -> i
  | None ->
    let i =
      { block = None;
        digest = None;
        prepares = Hashtbl.create 8;
        commits = Hashtbl.create 8;
        sent_commit = false;
        executed = false }
    in
    Hashtbl.add r.instances seq i;
    i

let active r = not r.silent
let is_leader r = Net.Node_id.equal r.id r.leader
let with_cpu r cost f = Net.Cpu.submit r.cpu ~cost f

let try_execute r =
  let rec go () =
    let next = r.executed_up_to + 1 in
    match Hashtbl.find_opt r.instances next with
    | Some i when (not i.executed) && Hashtbl.length i.commits >= (2 * r.cfg.f) + 1 ->
      (match i.block with
       | Some block ->
         i.executed <- true;
         r.executed_up_to <- next;
         List.iter Workload.Request.mark_confirmed block.batch;
         (* One acknowledgment per batch back to its client, as Leopard
            and the chain baselines charge it. *)
         let acked = List.length block.batch in
         if acked > 0 then
           Net.Network.charge_egress r.network ~src:r.id
             ~size:(Core.Replica.ack_wire_bytes * acked) ~category:"ack";
         r.on_execute ~seq:next block;
         go ()
       | None -> ())
    | Some _ | None -> ()
  in
  go ()

let maybe_commit r seq i =
  match i.digest with
  | Some digest when (not i.sent_commit) && Hashtbl.length i.prepares >= 2 * r.cfg.f ->
    i.sent_commit <- true;
    with_cpu r r.cfg.cost.sign (fun () ->
        if active r then begin
          let signature = Sig.sign r.sk (commit_payload ~seq ~digest) in
          Net.Network.multicast r.network ~src:r.id (Commit { seq; digest; voter = r.id; signature });
          Hashtbl.replace i.commits r.id ();
          try_execute r
        end)
  | Some _ | None -> ()

let rec maybe_propose r =
  if active r && is_leader r && r.next_seq <= r.executed_up_to + r.cfg.window then begin
    let pending = Core.Mempool.pending_requests r.mempool in
    let full = pending >= r.cfg.batch_size in
    let timed_out =
      pending > 0
      && Sim_time.compare Sim_time.(Engine.now r.engine - r.last_proposal) r.cfg.propose_timeout >= 0
    in
    if full || timed_out then begin
      r.last_proposal <- Engine.now r.engine;
      let batch = Core.Mempool.take r.mempool ~target:r.cfg.batch_size in
      if batch <> [] then begin
        let block = make_block ~seq:r.next_seq ~batch in
        r.next_seq <- r.next_seq + 1;
        let digest = block_digest block in
        let cost =
          Sim_time.( + ) r.cfg.cost.sign
            (Crypto.Cost_model.hash_cost r.cfg.cost ~bytes_len:block.payload_bytes)
        in
        with_cpu r cost (fun () ->
            if active r then begin
              let signature = Sig.sign r.sk (prepare_payload ~seq:block.seq ~digest) in
              Net.Network.multicast r.network ~src:r.id (Pre_prepare { block; signature });
              let i = inst_of r block.seq in
              i.block <- Some block;
              i.digest <- Some digest;
              (* The leader's pre-prepare counts as its prepare. *)
              Hashtbl.replace i.prepares r.id ();
              maybe_propose r
            end)
      end
    end
  end

let on_pre_prepare r block signature ~src =
  let digest = block_digest block in
  if
    Net.Node_id.equal src r.leader
    && Sig.verify r.pks.(r.leader) signature (prepare_payload ~seq:block.seq ~digest)
  then begin
    let i = inst_of r block.seq in
    if i.block = None then begin
      i.block <- Some block;
      i.digest <- Some digest;
      Hashtbl.replace i.prepares r.leader ();
      with_cpu r r.cfg.cost.sign (fun () ->
          if active r then begin
            let s = Sig.sign r.sk (prepare_payload ~seq:block.seq ~digest) in
            Net.Network.multicast r.network ~src:r.id
              (Prepare { seq = block.seq; digest; voter = r.id; signature = s });
            Hashtbl.replace i.prepares r.id ();
            maybe_commit r block.seq i
          end)
    end
  end

let handle r ~src m =
  if active r then
    match m with
    | Pre_prepare { block; signature } ->
      let cost =
        Sim_time.( + ) r.cfg.cost.verify
          (Crypto.Cost_model.hash_cost r.cfg.cost ~bytes_len:block.payload_bytes)
      in
      with_cpu r cost (fun () -> if active r then on_pre_prepare r block signature ~src)
    | Prepare { seq; digest; voter; signature } ->
      with_cpu r r.cfg.cost.verify (fun () ->
          if
            active r
            && Sig.verify r.pks.(voter) signature (prepare_payload ~seq ~digest)
          then begin
            let i = inst_of r seq in
            if i.digest = None || Option.equal Hash.equal i.digest (Some digest) then begin
              Hashtbl.replace i.prepares voter ();
              maybe_commit r seq i
            end
          end)
    | Commit { seq; digest; voter; signature } ->
      with_cpu r r.cfg.cost.verify (fun () ->
          if
            active r
            && Sig.verify r.pks.(voter) signature (commit_payload ~seq ~digest)
          then begin
            let i = inst_of r seq in
            Hashtbl.replace i.commits voter ();
            try_execute r;
            maybe_propose r
          end)

let submit r b =
  if active r then begin
    Core.Mempool.add r.mempool b;
    if is_leader r then maybe_propose r
  end

let spec ~cfg = Baseline.spec ~cfg ~f:cfg.f

let run (sp : cfg Baseline.spec) =
  let cfg = sp.cfg in
  let n = cfg.n in
  Baseline.run sp ~n ~f:cfg.f ~payload:cfg.payload ~meta (fun (ctx : msg Baseline.ctx) ->
      let keys = Array.init n (fun _ -> Sig.keygen ctx.key_rng) in
      let pks = Array.map fst keys in
      let on_execute ~seq block = ctx.commit ~height:seq ~digest:(block_digest block) block.batch in
      let replicas =
        Array.init n (fun id ->
            let r =
              { engine = ctx.engine;
                network = ctx.network;
                cfg;
                id;
                leader = ctx.leader;
                sk = snd keys.(id);
                pks;
                silent = ctx.is_silent id;
                cpu = Net.Cpu.create ctx.engine ~cores:cfg.cores;
                mempool = Core.Mempool.create ();
                instances = Hashtbl.create 64;
                next_seq = 1;
                executed_up_to = 0;
                last_proposal = Sim_time.zero;
                on_execute }
            in
            Net.Network.set_handler ctx.network id (fun ~src m -> handle r ~src m);
            r)
      in
      let rec leader_tick () =
        maybe_propose replicas.(ctx.leader);
        ignore (Engine.schedule ctx.engine ~delay:cfg.propose_timeout (fun () -> leader_tick ()))
      in
      leader_tick ();
      { targets = [ ctx.leader ]; submit = (fun ~target b -> submit replicas.(target) b) })

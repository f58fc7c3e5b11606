open Sim
module Ts = Crypto.Threshold
module Hash = Crypto.Hash

type 'item block = {
  height : int;
  parent : Hash.t;
  items : 'item list;
  payload_bytes : int;
  wire_bytes : int;
  hash : Hash.t;
}

type qc = { qc_height : int; qc_block : Hash.t; qc_proof : Ts.aggregate }

type 'item msg =
  | Proposal of { block : 'item block; justify : qc option }
  | Vote of { height : int; block_hash : Hash.t; share : Ts.share }

let wire_size = function
  | Proposal { block; justify } ->
    block.wire_bytes
    + (match justify with Some _ -> 8 + Hash.size_bytes + Ts.aggregate_size_bytes | None -> 1)
  | Vote _ -> 24 + Hash.size_bytes + Ts.share_size_bytes

let category = function
  | Proposal _ -> "proposal"
  | Vote _ -> "vote"

let meta = Net.Network.{ size = wire_size; category; priority = (fun _ -> Net.Nic.High) }

module type PAYLOAD = sig
  type pool
  type item

  val tag : string
  val encode : item -> string
  val wire_bytes : item -> int
  val payload_bytes : item -> int
  val pending : pool -> int
  val take : pool -> max:int -> item list
  val missing : pool -> item list -> Hash.t list
  val batches : pool -> item list -> Workload.Request.t list option
end

type outcome = Stored | Waiting | Refused

module Make (P : PAYLOAD) = struct
  let genesis_hash = Hash.of_string (P.tag ^ ".genesis")

  let make_block ~height ~parent items =
    let sum f = List.fold_left (fun acc i -> acc + f i) 0 items in
    { height;
      parent;
      items;
      payload_bytes = sum P.payload_bytes;
      wire_bytes = 24 + Hash.size_bytes + sum P.wire_bytes;
      hash =
        Hash.of_strings
          (Printf.sprintf "%sblock:%d" P.tag height :: Hash.raw parent :: List.map P.encode items) }

  let vote_payload ~height ~block_hash =
    Printf.sprintf "%s.vote:%d:%s" P.tag height (Hash.raw block_hash)

  type 'm t = {
    engine : Engine.t;
    network : 'm Net.Network.t;
    wrap : P.item msg -> 'm;
    id : Net.Node_id.t;
    leader : Net.Node_id.t;
    quorum : int;
    tsetup : Ts.setup;
    tkey : Ts.member_key;
    silent : bool;
    cpu : Net.Cpu.t;
    cost : Crypto.Cost_model.t;
    block_size : int;
    propose_timeout : Sim_time.span;
    pool : P.pool;
    commit : height:int -> digest:Hash.t -> Workload.Request.t list -> unit;
    blocks : (int, P.item block) Hashtbl.t;   (* heights above [committed_up_to] *)
    votes : (int, Core.Quorum.t) Hashtbl.t;  (* leader side, likewise *)
    mutable voted_up_to : int;
    mutable high_qc : qc option;
    mutable next_height : int;                (* leader side *)
    mutable committed_up_to : int;
    mutable commit_target : int;              (* highest height known committable *)
    mutable last_proposal : Sim_time.t;
    short_timer : Deadline.t;
  }

  let create ~engine ~network ~wrap ~id ~leader ~f ~tsetup ~tkey ~silent ~cpu ~cost ~block_size
      ~propose_timeout ~pool ~commit =
    { engine;
      network;
      wrap;
      id;
      leader;
      quorum = (2 * f) + 1;
      tsetup;
      tkey;
      silent;
      cpu;
      cost;
      block_size;
      propose_timeout;
      pool;
      commit;
      blocks = Hashtbl.create 256;
      votes = Hashtbl.create 64;
      voted_up_to = 0;
      high_qc = None;
      next_height = 1;
      committed_up_to = 0;
      commit_target = 0;
      last_proposal = Sim_time.zero;
      short_timer =
        Deadline.create (fun ~at f -> ignore (Engine.schedule_at engine ~at f : Engine.handle)) }

  let is_leader t = Net.Node_id.equal t.id t.leader
  let active t = not t.silent
  let now t = Engine.now t.engine
  let with_cpu t cost f = Net.Cpu.submit t.cpu ~cost f
  let hash_cost t block = Crypto.Cost_model.hash_cost t.cost ~bytes_len:block.payload_bytes

  (* Commits in height order up to [commit_target]; a missing block or
     missing data stops the loop (a chain cannot skip a height). A
     committed height's block and vote quorum are dropped: nothing reads
     them again, since the justify check reads only the QC, and the
     three-chain rule only its height. *)
  let rec commit_through t =
    let h = t.committed_up_to + 1 in
    if h <= t.commit_target then
      match Hashtbl.find_opt t.blocks h with
      | None -> ()
      | Some block -> (
          match P.batches t.pool block.items with
          | None -> ()
          | Some batches ->
            t.committed_up_to <- h;
            Hashtbl.remove t.blocks h;
            Hashtbl.remove t.votes h;
            List.iter Workload.Request.mark_confirmed batches;
            let acked = List.length batches in
            if acked > 0 then
              Net.Network.charge_egress t.network ~src:t.id
                ~size:(Core.Replica.ack_wire_bytes * acked) ~category:"ack";
            t.commit ~height:h ~digest:block.hash batches;
            commit_through t)

  (* Three-chain: QC(h) makes h - 2 committable. *)
  let raise_commit_target t (qc : qc) =
    t.commit_target <- max t.commit_target (qc.qc_height - 2)

  let ready_to_propose t =
    t.next_height = 1
    || match t.high_qc with Some qc -> qc.qc_height = t.next_height - 1 | None -> false

  (* A partial block waits for the short timer, [last_proposal +
     propose_timeout]: one deadline, armed only while items are pending,
     so an idle leader schedules nothing. *)
  let rec maybe_propose t =
    if active t && is_leader t && ready_to_propose t then begin
      let pending = P.pending t.pool in
      let full = pending >= t.block_size in
      let due = Sim_time.( + ) t.last_proposal t.propose_timeout in
      let timed_out = pending > 0 && Sim_time.compare (now t) due >= 0 in
      if full || timed_out then begin
        t.last_proposal <- now t;
        let items = P.take t.pool ~max:t.block_size in
        if items <> [] then begin
          let height = t.next_height in
          let parent = match t.high_qc with Some qc -> qc.qc_block | None -> genesis_hash in
          let block = make_block ~height ~parent items in
          let justify = t.high_qc in
          t.next_height <- height + 1;
          Hashtbl.replace t.blocks height block;
          with_cpu t (Sim_time.( + ) t.cost.tsig_share (hash_cost t block)) (fun () ->
              if active t then begin
                Net.Network.multicast t.network ~src:t.id (t.wrap (Proposal { block; justify }));
                (* The leader votes for its own proposal. *)
                let block_hash = block.hash in
                record_vote t ~height ~block_hash
                  ~share:(Ts.sign_share t.tkey (vote_payload ~height ~block_hash))
              end)
        end
      end
      else if pending > 0 then Deadline.arm t.short_timer ~at:due (fun () -> maybe_propose t)
    end

  (* A vote for a committed height comes after its QC formed. *)
  and record_vote t ~height ~block_hash ~share =
    let payload = vote_payload ~height ~block_hash in
    if height > t.committed_up_to && Ts.verify_share t.tsetup share payload then begin
      let q =
        match Hashtbl.find_opt t.votes height with
        | Some q -> q
        | None ->
          let q = Core.Quorum.create ~need:t.quorum in
          Hashtbl.add t.votes height q;
          q
      in
      match Core.Quorum.add q share with
      | Core.Quorum.Pending _ | Core.Quorum.Already_done -> ()
      | Core.Quorum.Ready shares ->
        let cost = Crypto.Cost_model.combine_cost t.cost ~shares:(List.length shares) in
        with_cpu t cost (fun () ->
            if active t then
              match Ts.combine t.tsetup payload shares with
              | None -> ()
              | Some proof ->
                let qc = { qc_height = height; qc_block = block_hash; qc_proof = proof } in
                t.high_qc <- Some qc;
                raise_commit_target t qc;
                commit_through t;
                maybe_propose t)
    end

  (* A proposal is stored whenever its justify checks out, its data is
     here and its height is not yet committed, but voted for only above
     [voted_up_to]: a proposal that waited for data may be retried after
     a higher height was voted, and the commit loop must still find
     it. *)
  let try_vote t block justify =
    let h = block.height in
    let justify_ok =
      match justify with
      | None -> h = 1
      | Some qc ->
        qc.qc_height = h - 1
        && Ts.verify t.tsetup qc.qc_proof
             (vote_payload ~height:qc.qc_height ~block_hash:qc.qc_block)
    in
    if not justify_ok then Refused
    else begin
      Option.iter (raise_commit_target t) justify;
      if P.missing t.pool block.items <> [] then Waiting
      else begin
        if h > t.committed_up_to then Hashtbl.replace t.blocks h block;
        commit_through t;
        if h > t.voted_up_to then begin
          t.voted_up_to <- h;
          let share = Ts.sign_share t.tkey (vote_payload ~height:h ~block_hash:block.hash) in
          Net.Network.send t.network ~src:t.id ~dst:t.leader
            (t.wrap (Vote { height = h; block_hash = block.hash; share }))
        end;
        Stored
      end
    end

  let sizes t = [ ("blocks", Hashtbl.length t.blocks); ("votes", Hashtbl.length t.votes) ]

  let handle t ~try_vote m =
    if active t then
      match m with
      | Proposal { block; justify } ->
        let cost =
          Sim_time.( + )
            (Sim_time.( + ) t.cost.tvrf_aggregate t.cost.tsig_share)
            (hash_cost t block)
        in
        with_cpu t cost (fun () -> if active t then try_vote block justify)
      | Vote { height; block_hash; share } ->
        if is_leader t then
          with_cpu t t.cost.tvrf_share (fun () ->
              if active t then record_vote t ~height ~block_hash ~share)
end

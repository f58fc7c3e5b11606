open Sim
module Ts = Crypto.Threshold
module Sig = Crypto.Signature
module Hash = Crypto.Hash

(* (view, block hash)-keyed table for the verified-notarization cache: a
   direct structural key instead of the old SHA-256 + sprintf synthetic
   key, so a cache probe costs a hash-table lookup, not a digest. *)
module Notar_table = Hashtbl.Make (struct
  type t = int * Hash.t

  let equal (v1, h1) (v2, h2) = v1 = v2 && Hash.equal h1 h2
  let hash (v, h) = Hash.hash h lxor (v * 0x9e3779b1)
end)

type hooks = {
  on_execute : id:Net.Node_id.t -> sn:int -> Bftblock.t -> Datablock.t list -> unit;
  on_view_change : id:Net.Node_id.t -> view:int -> unit;
  on_view_change_trigger : id:Net.Node_id.t -> abandoned:int -> unit;
  on_propose : id:Net.Node_id.t -> sn:int -> at:Sim_time.t -> unit;
  on_checkpoint : id:Net.Node_id.t -> lw:int -> unit;
}

let no_hooks =
  { on_execute = (fun ~id:_ ~sn:_ _ _ -> ());
    on_view_change = (fun ~id:_ ~view:_ -> ());
    on_view_change_trigger = (fun ~id:_ ~abandoned:_ -> ());
    on_propose = (fun ~id:_ ~sn:_ ~at:_ -> ());
    on_checkpoint = (fun ~id:_ ~lw:_ -> ()) }

(* Per-serial agreement instance (Algorithm 2 executes many in parallel). *)
type instance = {
  sn : int;
  mutable iview : int;                     (* view of the current attempt *)
  mutable block : Bftblock.t option;
  mutable voted_prepare : bool;
  mutable voted_hash : Hash.t option;      (* hash our prepare share covers *)
  mutable voted_commit : bool;
  mutable voted_at : Sim_time.t option;    (* our fresh prepare vote, until σ¹ lands *)
  mutable notarization : Ts.aggregate option;
  mutable notarized_view : int;            (* view in which notarized *)
  mutable confirmation : Ts.aggregate option;
  (* leader-side collection *)
  mutable prepare_quorum : Quorum.t option;
  mutable commit_quorum : Quorum.t option;
  (* out-of-order proof stash: with per-message network jitter a
     notarization can arrive before its proposal, and a confirmation
     before its notarization; they are replayed when the prerequisite
     lands *)
  mutable stashed_confirmation : (int * Hash.t * Ts.aggregate) option;
}

let never = Int64.max_int

(* Consensus counters, one set per replica (label [replica="<id>"]).
   Pure observation: nothing here feeds back into protocol behavior, so
   an attached registry cannot perturb a deterministic run. *)
type metrics = {
  commits : Obs.Counter.t;
  datablocks : Obs.Counter.t;
  clock_packs : Obs.Counter.t;
  idle_packs : Obs.Counter.t;
  views : Obs.Counter.t;
  vc_triggers : Obs.Counter.t;
  equivocations : Obs.Counter.t;
  checkpoints : Obs.Counter.t;
  submit_rejected : Obs.Counter.t;
}

type t = {
  platform : Platform.t;
  cfg : Config.t;
  id : Net.Node_id.t;
  sk : Sig.private_key;
  pks : Sig.public_key array;
  tsetup : Ts.setup;
  tkey : Ts.member_key;
  strategy : Byzantine.t;
  hooks : hooks;
  trace : Trace.t;
  ms : metrics option;
  mempool : Mempool.t;
  pool : Datablock_pool.t;
  instances : (int, instance) Hashtbl.t;
  ledger : Ledger.t;
  mutable view : int;
  mutable lw : int;                        (* low watermark *)
  mutable next_sn : int;                   (* leader: next serial to assign *)
  mutable db_counter : int;                (* datablock counter d *)
  mutable state_hash : Hash.t;
  mutable latest_checkpoint : Msg.checkpoint_cert option;
  checkpoint_quorums : (int, Hash.t * Quorum.t) Hashtbl.t;
  (* proposals waiting for datablock availability *)
  waiting_propose : (int, Msg.t) Hashtbl.t;
  mutable fetch_inflight : Hash.Set.t;
  (* view change *)
  mutable in_view_change : bool;
  timeout_votes : (int, (Net.Node_id.t, unit) Hashtbl.t) Hashtbl.t;  (* view -> voter set *)
  mutable sent_timeout_for : int;          (* highest view we voted to abandon *)
  mutable vc_sent_for : int;               (* highest target view we sent a VC message for *)
  mutable view_entered_at : Sim_time.t;    (* when the current view started *)
  mutable last_execution_at : Sim_time.t;  (* progress marker for timeout grace *)
  vc_msgs : (int, (Net.Node_id.t, Msg.view_change) Hashtbl.t) Hashtbl.t;
  mutable new_view_sent_for : int;
  (* watched (re-sent) requests driving the view-change trigger *)
  watched : Watchdog.t;
  verified_notarizations : unit Notar_table.t;
      (* notarization proofs already verified — view-change and new-view
         messages repeat the same proofs 2f+1 times, and re-verifying an
         aggregate costs 10 ms of simulated BLS each time *)
  mutable crashed : bool;
  (* replaying the durable log: no sends, no hooks, no snapshot saves *)
  mutable recovering : bool;
  mutable last_partial_pack : Sim_time.t;
  mutable last_partial_propose : Sim_time.t;
  mutable propose_queued : bool;  (* a round-batched proposal task is queued *)
  (* the proposal clock: [timer_packing] holds from an age-rule pack to
     the next α-full one; [vote_rtt] is the last prepare-vote ->
     notarization time *)
  mutable timer_packing : bool;
  mutable vote_rtt : Sim_time.span option;
  (* the idle pack: the batch it sent while the packing rules still
     count it as the mempool's head, and the earliest instant of the
     next one (the last datablock's send + [datablock_timeout]) *)
  mutable idle_copy : Workload.Request.t option;
  mutable idle_from : Sim_time.t;
  (* deadline slots (see [arm]): the age rule's pack, the proposal
     clock's pack, the leader's short timer and the watchdog *)
  age_due : Sim_time.t ref;
  clock_due : Sim_time.t ref;
  propose_due : Sim_time.t ref;
  watch_due : Sim_time.t ref;
  punished : (Net.Node_id.t, unit) Hashtbl.t;  (* kicked-out equivocators *)
  (* overload accounting (plain ints: readable without a registry) *)
  mutable submits_rejected : int;   (* requests refused at admission *)
}

let bump t sel = match t.ms with Some m -> Obs.Counter.incr (sel m) | None -> ()
let bump_by t sel k = match t.ms with Some m -> Obs.Counter.add (sel m) k | None -> ()

let id t = t.id
let view t = t.view
let low_watermark t = t.lw
let ledger t = t.ledger
let state_hash t = t.state_hash
let mempool_pending t = Mempool.pending_requests t.mempool
let submits_rejected t = t.submits_rejected
let pool t = t.pool
let datablocks_created t = t.db_counter - 1

let punished t = Hashtbl.fold (fun id () acc -> id :: acc) t.punished []

let leader_of t v = Config.leader_of_view t.cfg v
let is_leader_of t v = Net.Node_id.equal (leader_of t v) t.id
let is_leader t = is_leader_of t t.view
let quorum_size t = Config.quorum t.cfg

let now t = t.platform.Platform.now ()
let tracef t tag fmt = Trace.recordf t.trace ~at:(now t) ~tag fmt

let active t =
  (* Silent replicas and crashed replicas take no actions at all. *)
  (not t.crashed)
  && (match t.strategy with Byzantine.Silent -> false | _ -> true)

(* Recovery replays the durable log through the normal handlers; the
   replica must re-derive its state without re-emitting anything (the
   messages were already sent before the restart — deterministic
   threshold shares make any post-recovery re-send identical anyway). *)
let send t ~dst msg = if not t.recovering then t.platform.Platform.send ~dst msg
let multicast t msg = if not t.recovering then t.platform.Platform.multicast msg
let schedule t ~delay f = t.platform.Platform.schedule ~delay f

(* Deadline slot [d]: the instant armed ([never]: none), moved only
   earlier by the state changes that create deadlines, so a replica
   holds O(1) timers. A stale firing does nothing; a live one clears the
   slot first, so [f] may re-arm it. *)
let arm t d ~at f =
  if Sim_time.compare at !d < 0 then begin
    d := at;
    t.platform.Platform.schedule_at ~at (fun () ->
        if Sim_time.compare !d at = 0 then begin
          d := never;
          if active t then f ()
        end)
  end

(* Write-ahead logging: called immediately BEFORE the send whose emission
   is a binding commitment. [enabled] is false on the default sim
   platform ([Store.null]), so the hot path skips even the record
   allocation; the log callback is synchronous and schedules nothing, so
   an attached sink never perturbs the event order. *)
let log_store t r =
  let s = t.platform.Platform.store in
  if s.Store.enabled && not t.recovering then s.Store.log r

(* Charge [cost] on the replica's CPU, then run [f]. *)
let with_cpu t cost f = t.platform.Platform.submit ~cost f
let with_cpu_ns t cost_ns f = t.platform.Platform.submit_ns ~cost_ns f

(* The datablock check goes through the platform's verification
   dispatch. On the sim plane the continuation runs synchronously at the
   dispatch point ([Verify.inline]); on the socket plane it may run at a
   later loop tick, after a worker domain finishes, so it re-checks the
   replica state it depends on. Threshold shares and proofs are checked
   by direct calls: at two compressions each they are far below the
   cut at which [Verify.pooled] would ship a job. *)
let verify_via t job k = t.platform.Platform.verify job k

let instance_of t sn =
  match Hashtbl.find_opt t.instances sn with
  | Some i -> i
  | None ->
    let i =
      { sn;
        iview = t.view;
        block = None;
        voted_prepare = false;
        voted_hash = None;
        voted_commit = false;
        voted_at = None;
        notarization = None;
        notarized_view = 0;
        confirmation = None;
        prepare_quorum = None;
        commit_quorum = None;
        stashed_confirmation = None }
    in
    Hashtbl.add t.instances sn i;
    i

(* Entering a later view resets an instance's per-view voting state; the
   notarization (if any) survives as view-change evidence, and a
   confirmation is final. *)
let refresh_instance_view t inst =
  if inst.iview < t.view then begin
    inst.iview <- t.view;
    inst.voted_prepare <- false;
    inst.voted_hash <- None;
    inst.voted_commit <- false;
    inst.voted_at <- None;
    inst.prepare_quorum <- None;
    inst.commit_quorum <- None
  end

(* ----------------------------------------------------------------- *)
(* Durable snapshots                                                  *)
(* ----------------------------------------------------------------- *)

(* A serializable image of everything [recover] needs: the confirmed
   ledger above the watermark, the live agreement instances, the
   datablock index backing them and the pool's executed floors. Its size
   is O(k * bft_size + n), whatever the run length. The pool's Executed
   states are not carried ([recover] re-derives them from the executed
   blocks).
   Collections are sorted so the same replica state always serializes
   to the same bytes. *)
let snapshot_of t : Store.snapshot =
  let insts =
    Hashtbl.fold (fun _ i acc -> i :: acc) t.instances []
    |> List.sort (fun a b -> compare a.sn b.sn)
    |> List.map (fun i ->
           Store.
             { s_sn = i.sn;
               s_iview = i.iview;
               s_block = i.block;
               s_voted_prepare = i.voted_prepare;
               s_voted_hash = i.voted_hash;
               s_voted_commit = i.voted_commit;
               s_notarized_view = i.notarized_view;
               s_notarization = i.notarization })
  in
  let dbs =
    Datablock_pool.fold t.pool ~init:[] ~f:(fun acc db ~linked -> (db, linked) :: acc)
    |> List.sort (fun ((a : Datablock.t), _) ((b : Datablock.t), _) ->
           compare
             (a.Datablock.header.creator, a.Datablock.header.counter)
             (b.Datablock.header.creator, b.Datablock.header.counter))
  in
  Store.
    { snap_view = t.view;
      snap_lw = t.lw;
      snap_next_sn = t.next_sn;
      snap_db_counter = t.db_counter;
      snap_state_hash = t.state_hash;
      snap_executed_up_to = Ledger.executed_up_to t.ledger;
      snap_checkpoint = t.latest_checkpoint;
      snap_blocks = Ledger.blocks t.ledger;
      snap_executed_floors = Datablock_pool.floors t.pool;
      snap_instances = insts;
      snap_datablocks = dbs }

let save_snapshot t = (t.platform.Platform.store).Store.save (snapshot_of t)

(* ----------------------------------------------------------------- *)
(* Datablock preparation (Algorithm 1)                                *)
(* ----------------------------------------------------------------- *)

let sign_and_send_datablock t batches =
  bump t (fun m -> m.datablocks);
  t.idle_from <- Sim_time.( + ) (now t) t.cfg.datablock_timeout;
  let counter = t.db_counter in
  t.db_counter <- counter + 1;
  (* Durable BEFORE the multicast: re-using a counter after a restart
     would manufacture equivocation evidence against an honest node. *)
  log_store t (Store.Db_counter t.db_counter);
  let db = Datablock.create ~sk:t.sk ~creator:t.id ~counter ~now:(now t) batches in
  let cost =
    Sim_time.( + ) t.cfg.cost.sign
      (Crypto.Cost_model.hash_cost t.cfg.cost ~bytes_len:db.Datablock.payload_bytes)
  in
  with_cpu t cost (fun () ->
      if active t then begin
        ignore (Datablock_pool.add t.pool db);
        multicast t (Msg.Datablock_msg db);
        tracef t "datablock.sent" "%a" Datablock.pp db
      end)

(* The equivocation attack: two different datablocks under one counter.
   Halves of the replica set receive different variants; one witness gets
   both, so the duplicate-counter check catches it there. The witness is
   the current leader (whose pool every datablock must reach to be
   proposed) — unless the equivocator IS the leader, in which case both
   variants go to its successor, the replica that would audit the pool
   after a view change. *)
let equivocate_datablocks t batches_a batches_b =
  let counter = t.db_counter in
  t.db_counter <- counter + 1;
  log_store t (Store.Db_counter t.db_counter);
  let da = Datablock.create ~sk:t.sk ~creator:t.id ~counter ~now:(now t) batches_a in
  let db = Datablock.create ~sk:t.sk ~creator:t.id ~counter ~now:(now t) batches_b in
  let n = t.platform.Platform.n in
  let leader = leader_of t t.view in
  let witness =
    if Net.Node_id.equal t.id leader then leader_of t (t.view + 1) else leader
  in
  for dst = 0 to n - 1 do
    if not (Net.Node_id.equal dst t.id) then
      if Net.Node_id.equal dst witness then begin
        send t ~dst (Msg.Datablock_msg da);
        send t ~dst (Msg.Datablock_msg db)
      end
      else if dst < n / 2 then send t ~dst (Msg.Datablock_msg da)
      else send t ~dst (Msg.Datablock_msg db)
  done;
  tracef t "datablock.equivocated" "counter=%d" counter

let may_pack t = active t && ((not (is_leader t)) || t.cfg.leader_generates_datablocks)

(* Stops the proposal clock's pending pack (see below). *)
let disarm_pack_clock t = t.clock_due := never

(* The idle pack. An idle replica's first batch b would wait the whole
   [datablock_timeout] T for the age rule, which then packs it with
   every batch that followed it. So when b enters an empty mempool, the
   partial-pack rate limit is open and no datablock left for T, b is
   packed at once, and the packing rules go on as if b still headed the
   mempool (the copy, [idle_copy]): the age rule packs b's followers at
   b's birth + T, b's requests count toward the α rule, and the next
   pack by any rule closes the copy. So b leaves early and no other
   request leaves later, for at most one extra datablock per T of
   silence. The leader, which packs nothing by default, never idle
   packs. *)
let idle t =
  (not (is_leader t))
  && Option.is_none t.idle_copy
  && Int64.compare t.cfg.datablock_timeout 0L > 0
  && Sim_time.compare (now t) t.last_partial_pack > 0
  && Sim_time.compare (now t) t.idle_from >= 0
  && Mempool.pending_requests t.mempool = 0

(* The mempool as the packing rules see it: an open copy heads it. *)
let head_age t =
  match t.idle_copy with
  | Some b -> Some Sim_time.(now t - b.Workload.Request.born)
  | None -> Mempool.oldest_age t.mempool ~now:(now t)

let copy_count t = match t.idle_copy with Some b -> b.Workload.Request.count | None -> 0

(* [target] requests' worth of batches, the copy's counted first; the
   pack closes the copy. *)
let take_for_pack t ~target =
  let held = copy_count t in
  t.idle_copy <- None;
  Mempool.take t.mempool ~target:(target - held)

let rec maybe_pack ?idle t =
  if may_pack t then
    match t.strategy with
    | Byzantine.Censor -> () (* holds requests back; clients must re-send *)
    | Byzantine.Equivocate_datablocks ->
      if Mempool.has_at_least t.mempool (max 2 t.cfg.alpha) then begin
        let batches = Mempool.take t.mempool ~target:(max 2 t.cfg.alpha) in
        match batches with
        | [ _ ] | [] -> () (* need two variants; wait for more *)
        | first :: rest -> equivocate_datablocks t [ first ] rest
      end
    | Byzantine.Honest | Byzantine.Silent | Byzantine.Crash_at _ ->
      let full = Mempool.has_at_least t.mempool (t.cfg.alpha - copy_count t) in
      let stale =
        Int64.compare t.cfg.datablock_timeout 0L > 0
        && (match head_age t with
            | Some age -> Sim_time.compare age t.cfg.datablock_timeout >= 0
            | None -> false)
      in
      if full then begin
        (* α fills within a cycle: a clock pack would only split the next
           full datablock, so the clock stops until the age rule packs. *)
        t.timer_packing <- false;
        disarm_pack_clock t;
        let batches = take_for_pack t ~target:t.cfg.alpha in
        if batches <> [] then sign_and_send_datablock t batches
      end
      else if stale && Sim_time.compare (now t) t.last_partial_pack > 0 then begin
        t.timer_packing <- true;
        t.last_partial_pack <- Sim_time.( + ) (now t) t.cfg.datablock_timeout;
        let batches = take_for_pack t ~target:max_int in
        if batches <> [] then sign_and_send_datablock t batches
      end
      else begin
        match idle with
        | Some b ->
          (* The mempool holds b alone. *)
          let batches = Mempool.take t.mempool ~target:max_int in
          t.idle_copy <- Some b;
          bump t (fun m -> m.idle_packs);
          sign_and_send_datablock t batches
        | None -> ()
      end;
      arm_age_deadline t

(* The age rule's deadline: the mempool head's birth (the client's
   instant) plus [datablock_timeout], once the partial-pack rate limit
   has reopened. *)
and arm_age_deadline t =
  if Int64.compare t.cfg.datablock_timeout 0L > 0 then
    match head_age t with
    | Some age ->
      let due = Sim_time.(now t - age + t.cfg.datablock_timeout) in
      let at = Sim_time.max due (Sim_time.( + ) t.last_partial_pack 1L) in
      arm t t.age_due ~at (fun () -> maybe_pack t)
    | None -> ()

(* ----------------------------------------------------------------- *)
(* The proposal clock (both batching timers positive)                 *)
(* ----------------------------------------------------------------- *)

(* Below its BFTsize the leader proposes on its short timer, once per
   [proposal_timeout]. A datablock packed by the age rule lands at a
   random phase of that cycle and waits half a cycle on average for the
   next proposal. So each non-leader also packs on the leader's clock:
   the vote for a fresh partial proposal arms one pack, aimed to land a
   guard before the leader's next short-timer proposal. The α-full and
   age rules are untouched, so the clock only ever packs earlier. *)
let clocked t =
  Int64.compare t.cfg.datablock_timeout 0L > 0 && Int64.compare t.cfg.proposal_timeout 0L > 0

(* guard = proposal_timeout / 8. A datablock that misses the proposal it
   was aimed at waits a whole cycle, so the guard must cover the aim's
   error: the spread of sign + multicast + verify between the pack and
   the leader's pool, beyond the rtt term below. That is under a
   millisecond on the simulated links and a few loop rounds on loopback,
   against 2.5 ms at tcpbench's 20 ms cycle. The guard is also the wait
   left at the leader: one eighth of a cycle in place of one half. *)
let clock_guard_fraction = 8L

let clock_pack t =
  if may_pack t then
    match t.strategy with
    | Byzantine.Censor | Byzantine.Equivocate_datablocks -> ()
    | Byzantine.Honest | Byzantine.Silent | Byzantine.Crash_at _ ->
      let batches = take_for_pack t ~target:t.cfg.alpha in
      if batches <> [] then begin
        bump t (fun m -> m.clock_packs);
        sign_and_send_datablock t batches;
        arm_age_deadline t
      end

(* Called at the vote instant, about one one-way delay after the leader
   proposed. The leader's next proposal is [proposal_timeout] after its
   last one; our datablock needs about one one-way delay to reach it, and
   the vote -> notarization [rtt] (two one-way delays plus the leader's
   quorum wait) over-covers both, so a slow link aims earlier. No rtt
   measured yet, or no time left in the cycle: arm nothing. *)
let arm_pack_clock t =
  match t.vote_rtt with
  | Some rtt when t.timer_packing ->
    let p = t.cfg.proposal_timeout in
    let delay = Int64.(sub (sub p (div p clock_guard_fraction)) rtt) in
    if Int64.compare delay 0L > 0 then begin
      disarm_pack_clock t;
      arm t t.clock_due ~at:Sim_time.(now t + delay) (fun () -> clock_pack t)
    end
  | Some _ | None -> ()

(* ----------------------------------------------------------------- *)
(* Normal case, leader side (Algorithm 2: pre-prepare / notarize /
   confirm stages)                                                    *)
(* ----------------------------------------------------------------- *)

let propose_block t block justification =
  let bh = Bftblock.hash block in
  let payload = Msg.prepare_payload ~view:t.view ~block_hash:bh in
  let cost =
    Sim_time.( + ) t.cfg.cost.tsig_share
      (Crypto.Cost_model.hash_cost t.cfg.cost ~bytes_len:(Bftblock.wire_size block))
  in
  with_cpu t cost (fun () ->
      if active t && not t.in_view_change && block.Bftblock.view = t.view then begin
        let leader_share = Ts.sign_share t.tkey payload in
        let inst = instance_of t block.Bftblock.sn in
        refresh_instance_view t inst;
        inst.block <- Some block;
        inst.voted_prepare <- true;
        inst.voted_hash <- Some bh;
        let q = Quorum.create ~need:(quorum_size t) in
        ignore (Quorum.add q leader_share);
        inst.prepare_quorum <- Some q;
        let msg = Msg.Propose { block; leader_share; justification } in
        log_store t (Store.Logged_msg msg);
        multicast t msg;
        t.hooks.on_propose ~id:t.id ~sn:block.Bftblock.sn ~at:(now t);
        tracef t "propose" "%a" Bftblock.pp block
      end)

(* Link up to BFTsize pending datablocks into the next serial and
   propose it. *)
let propose_pending t =
  let dbs = Datablock_pool.take_pending t.pool ~max:t.cfg.bft_size in
  let links = List.map Datablock.hash dbs in
  let block = Bftblock.create ~view:t.view ~sn:t.next_sn ~links in
  t.next_sn <- t.next_sn + 1;
  propose_block t block None

let rec maybe_propose t =
  if active t && is_leader t && not t.in_view_change then begin
    let pending = Datablock_pool.pending t.pool in
    let window_open = t.next_sn <= t.lw + t.cfg.k in
    if window_open && pending >= t.cfg.bft_size then begin
      propose_pending t;
      maybe_propose t
    end
    else if window_open && pending > 0 && Int64.compare t.cfg.proposal_timeout 0L > 0 then
      if Sim_time.compare (now t) t.last_partial_propose > 0 then begin
        (* Short-timer (§6.2.1): propose with what we have. *)
        t.last_partial_propose <- Sim_time.( + ) (now t) t.cfg.proposal_timeout;
        propose_pending t
      end
      else
        (* The rate limit is closed: these leave when it reopens (the
           clock packs aimed there, or a full proposal's stragglers). *)
        arm t t.propose_due ~at:(Sim_time.( + ) t.last_partial_propose 1L) (fun () ->
            maybe_propose t)
  end

(* Round-batched idle proposals. A datablock that finds the short timer
   open and the pool under BFTsize would be proposed alone, and the ones
   that land microseconds after it would wait a whole [proposal_timeout].
   So the arrival queues one zero-cost task instead: on the socket
   runtime it runs after every fd ready in this loop round has been
   dispatched, so the one proposal links every datablock of the round;
   on the sim plane it runs at the same instant. The flag coalesces a
   round's arrivals into one task. The BFTsize rule stays inline. *)
let propose_on_arrival t =
  if
    is_leader t && (not t.in_view_change)
    && Int64.compare t.cfg.proposal_timeout 0L > 0
    && Sim_time.compare (now t) t.last_partial_propose > 0
    && Datablock_pool.pending t.pool < t.cfg.bft_size
  then begin
    if not t.propose_queued then begin
      t.propose_queued <- true;
      with_cpu t 0L (fun () ->
          t.propose_queued <- false;
          maybe_propose t)
    end
  end
  else maybe_propose t

(* ----------------------------------------------------------------- *)
(* Execution, acknowledgments and checkpoints (Algorithm 3)           *)
(* ----------------------------------------------------------------- *)

let ack_wire_bytes = 48

let send_checkpoint_vote t sn =
  let payload = Msg.checkpoint_payload ~cp_sn:sn ~cp_state:t.state_hash in
  let state = t.state_hash in
  with_cpu t t.cfg.cost.tsig_share (fun () ->
      if active t then begin
        let share = Ts.sign_share t.tkey payload in
        send t ~dst:(leader_of t t.view) (Msg.Checkpoint_vote { cp_sn = sn; cp_state = state; share })
      end)

let rec fetch_missing t hashes =
  (* Nothing to fetch from during log replay — the send would be dropped
     anyway, and marking the hash in-flight would suppress the real fetch
     issued once the replica is live again. *)
  if not t.recovering then
    let leader = leader_of t t.view in
    List.iter
      (fun h ->
        if not (Hash.Set.mem h t.fetch_inflight) then begin
          t.fetch_inflight <- Hash.Set.add h t.fetch_inflight;
          send t ~dst:leader (Msg.Fetch { hash = h })
        end)
      hashes

and try_execute t =
  match Ledger.next_executable t.ledger with
  | None -> ()
  | Some block ->
    let missing = Datablock_pool.missing_links t.pool block.Bftblock.links in
    if missing <> [] then
      (* Confirmed without local data (we were not among the 2f + 1
         voters): recover the datablocks, then resume. *)
      fetch_missing t missing
    else begin
      let sn = block.Bftblock.sn in
      let dbs = List.filter_map (Datablock_pool.find t.pool) block.Bftblock.links in
      let batch_count = ref 0 in
      List.iter
        (fun (db : Datablock.t) ->
          Datablock_pool.mark_executed t.pool (Datablock.hash db) ~sn;
          List.iter
            (fun b ->
              Workload.Request.mark_confirmed b;
              incr batch_count)
            db.Datablock.batches)
        dbs;
      t.state_hash <- Hash.combine [ t.state_hash; Bftblock.hash block ];
      Ledger.mark_executed t.ledger sn;
      t.last_execution_at <- now t;
      (* One acknowledgment per batch back to its client (response to
         client, Fig. 5) — external egress, Table 4's "Miscellaneous".
         Replay re-executes without re-acking or re-firing hooks: the
         clients were answered before the restart. *)
      if !batch_count > 0 && not t.recovering then
        t.platform.Platform.charge_egress ~size:(ack_wire_bytes * !batch_count) ~category:"ack";
      if not t.recovering then begin
        bump t (fun m -> m.commits);
        t.hooks.on_execute ~id:t.id ~sn block dbs
      end;
      tracef t "execute" "sn%d (%d datablocks)" sn (List.length dbs);
      if sn mod t.cfg.checkpoint_interval = 0 then send_checkpoint_vote t sn;
      try_execute t
    end

let apply_checkpoint_cert t (cert : Msg.checkpoint_cert) =
  let newer =
    match t.latest_checkpoint with
    | Some old -> cert.cp_sn > old.cp_sn
    | None -> true
  in
  if newer then begin
    t.latest_checkpoint <- Some cert;
    if cert.cp_sn > t.lw then begin
      t.lw <- cert.cp_sn;
      (* The certificate is the proof that everything below [cp_sn] is
         final; it must survive a restart or recovery cannot trust its
         own watermark. *)
      log_store t (Store.Logged_msg (Msg.Checkpoint_cert_msg cert));
      (* State transfer: a replica that fell behind adopts the
         checkpointed execution state. *)
      if Ledger.executed_up_to t.ledger < cert.cp_sn then begin
        Ledger.fast_forward t.ledger cert.cp_sn;
        t.state_hash <- cert.cp_state
      end;
      (* Garbage collection below the watermark. *)
      Ledger.prune_below t.ledger t.lw;
      let lw = t.lw in
      Datablock_pool.prune t.pool ~lw;
      Hashtbl.filter_map_inplace
        (fun sn q -> if sn > lw then Some q else None)
        t.checkpoint_quorums;
      Hashtbl.filter_map_inplace
        (fun sn m -> if sn > lw then Some m else None)
        t.waiting_propose;
      let stale = Hashtbl.fold (fun sn _ acc -> if sn <= lw then sn :: acc else acc) t.instances [] in
      List.iter (Hashtbl.remove t.instances) stale;
      tracef t "checkpoint.applied" "lw=%d" t.lw;
      (* Checkpoint time is snapshot time: the pruned state is minimal,
         and the store can truncate every log segment the snapshot
         covers. Skipped during replay (the snapshot being replayed is
         still the freshest one). *)
      if (t.platform.Platform.store).Store.enabled && not t.recovering then save_snapshot t;
      if not t.recovering then begin
        bump t (fun m -> m.checkpoints);
        t.hooks.on_checkpoint ~id:t.id ~lw:t.lw;
        maybe_propose t
      end;
      try_execute t
    end
  end

(* ----------------------------------------------------------------- *)
(* Normal case, voter side (Algorithm 2: prepare / commit stages)     *)
(* ----------------------------------------------------------------- *)

let confirm_block t inst (block : Bftblock.t) proof =
  if inst.confirmation = None then begin
    inst.confirmation <- Some proof;
    log_store t (Store.Confirmed_block block);
    Ledger.confirm t.ledger block;
    tracef t "confirmed" "%a" Bftblock.pp block;
    try_execute t
  end

(* The leader's share collector for one voting round of an instance: add
   [share] to the round's quorum ([slot], or a fresh one handed to
   [install]) and [finish] the round with the shares once it is ready. *)
let collect_share t ~slot ~install share finish =
  let q =
    match slot with
    | Some q -> q
    | None ->
      let q = Quorum.create ~need:(quorum_size t) in
      install q;
      q
  in
  match Quorum.add q share with
  | Quorum.Ready shares -> finish shares
  | Quorum.Pending _ | Quorum.Already_done -> ()

(* The leader completed a commit quorum: build the confirmation proof. *)
let leader_finish_commit t inst notar_digest shares =
  let payload = Msg.commit_payload ~view:inst.iview ~notar_digest in
  let cost = Crypto.Cost_model.combine_cost t.cfg.cost ~shares:(List.length shares) in
  with_cpu t cost (fun () ->
      if active t && not t.in_view_change then
        match Ts.combine t.tsetup payload shares with
        | None -> tracef t "combine.failed" "commit sn%d" inst.sn
        | Some proof ->
          multicast t (Msg.Confirmation { view = inst.iview; sn = inst.sn; notar_digest; proof });
          (match inst.block with
           | Some block -> confirm_block t inst block proof
           | None -> ()))

(* A replica learned the notarization proof for an instance: record it
   and cast the second-round vote (commit stage, lines 27-31). Casting
   the second vote needs only σ¹, not the block body (Algorithm 2 signs
   H(σ¹)); execution later requires the body and is gated separately. *)
let rec accept_notarization t inst proof =
  if inst.notarization = None || inst.notarized_view < inst.iview then begin
    inst.notarization <- Some proof;
    inst.notarized_view <- inst.iview
  end;
  replay_stashed_confirmation t inst;
  cast_commit_vote t inst proof

and replay_stashed_confirmation t inst =
  match inst.stashed_confirmation with
  | Some (view, notar_digest, proof) ->
    inst.stashed_confirmation <- None;
    process_confirmation t inst ~view ~notar_digest ~proof
  | None -> ()

(* [proof] has been verified against [view] and [notar_digest]. *)
and process_confirmation t inst ~view ~notar_digest ~proof =
  match (inst.block, inst.notarization) with
  | Some block, Some notar when Hash.equal (Msg.notar_digest notar) notar_digest ->
    confirm_block t inst block proof
  | _ ->
    (* Block or σ¹ not here yet (jitter can reorder a sender's messages);
       keep the proof and replay when the prerequisite arrives. *)
    inst.stashed_confirmation <- Some (view, notar_digest, proof)

and cast_commit_vote t inst proof =
  if not inst.voted_commit then begin
    inst.voted_commit <- true;
    let nd = Msg.notar_digest proof in
    let payload = Msg.commit_payload ~view:inst.iview ~notar_digest:nd in
    let share = Ts.sign_share t.tkey payload in
    let vote = Msg.Commit_vote { view = inst.iview; sn = inst.sn; notar_digest = nd; share } in
    log_store t (Store.Logged_msg vote);
    if is_leader t then
      (* The leader is its own collector. *)
      collect_share t ~slot:inst.commit_quorum
        ~install:(fun q -> inst.commit_quorum <- Some q)
        share (leader_finish_commit t inst nd)
    else send t ~dst:(leader_of t inst.iview) vote
  end

(* The leader completed a prepare quorum: build the notarization proof
   (notarize stage, lines 21-24). *)
let leader_finish_prepare t inst block_hash shares =
  let payload = Msg.prepare_payload ~view:inst.iview ~block_hash in
  let cost = Crypto.Cost_model.combine_cost t.cfg.cost ~shares:(List.length shares) in
  with_cpu t cost (fun () ->
      if active t && not t.in_view_change then
        match Ts.combine t.tsetup payload shares with
        | None -> tracef t "combine.failed" "prepare sn%d" inst.sn
        | Some proof ->
          let msg = Msg.Notarization { view = inst.iview; sn = inst.sn; block_hash; proof } in
          log_store t (Store.Logged_msg msg);
          multicast t msg;
          with_cpu t t.cfg.cost.tsig_share (fun () ->
              if active t then accept_notarization t inst proof))

(* Validation and first-round vote (prepare stage, lines 10-19). *)
let try_vote_prepare t (msg : Msg.t) =
  match msg with
  | Msg.Propose { block; leader_share; justification } ->
    let sn = block.Bftblock.sn in
    let bh = Bftblock.hash block in
    let view_ok = block.Bftblock.view = t.view && not t.in_view_change in
    let watermark_ok = t.lw < sn && sn <= t.lw + t.cfg.k in
    if block.Bftblock.view > t.view || (block.Bftblock.view = t.view && t.in_view_change) then
      (* A proposal from a view we have not entered yet (it can overtake
         the new-view message on the wire): defer until we catch up. *)
      Hashtbl.replace t.waiting_propose sn msg
    else if view_ok && sn > t.lw + t.cfg.k then
      (* Above our window: our low watermark lags the leader's (its
         checkpoint certificate may still be in flight). Defer and retry
         when a checkpoint advances lw. *)
      Hashtbl.replace t.waiting_propose sn msg;
    if view_ok && watermark_ok then begin
      let inst = instance_of t sn in
      refresh_instance_view t inst;
      let not_equivocating =
        (* Never vote for two different blocks at one serial in a view;
           also refuse to overwrite a confirmed block with different
           content (Byzantine new leader). *)
        match inst.block with
        | Some b -> Bftblock.equal_content b block || not inst.voted_prepare
        | None -> true
      in
      let confirmed_conflict =
        match (inst.confirmation, inst.block) with
        | Some _, Some b -> not (Bftblock.equal_content b block)
        | _ -> false
      in
      let share_ok =
        Ts.verify_share t.tsetup leader_share (Msg.prepare_payload ~view:t.view ~block_hash:bh)
      in
      let justification_ok =
        match justification with
        | None -> true
        | Some (old_view, proof) ->
          old_view < t.view
          && Ts.verify t.tsetup proof (Msg.prepare_payload ~view:old_view ~block_hash:bh)
      in
      let repeat_vote =
        inst.voted_prepare
        && (match inst.voted_hash with Some h -> Hash.equal h bh | None -> false)
        && share_ok && justification_ok
      in
      if repeat_vote then begin
        (* A re-delivery of a proposal we already voted for — typically
           replayed at a replica that restarted between voting and the
           notarization. Threshold shares are deterministic, so the
           re-sent vote is bit-identical to the first; adopt the body if
           it was lost with the process. *)
        if inst.block = None then begin
          inst.block <- Some block;
          List.iter (Datablock_pool.mark_linked t.pool) block.Bftblock.links
        end;
        Hashtbl.remove t.waiting_propose sn;
        let share = Ts.sign_share t.tkey (Msg.prepare_payload ~view:t.view ~block_hash:bh) in
        send t ~dst:(leader_of t t.view)
          (Msg.Prepare_vote { view = t.view; sn; block_hash = bh; share });
        tracef t "vote.repeat" "sn%d" sn;
        replay_stashed_confirmation t inst;
        try_execute t
      end
      else if
        not (not inst.voted_prepare && not_equivocating && (not confirmed_conflict) && share_ok
             && justification_ok)
      then
        tracef t "vote.reject" "sn%d voted=%b equiv=%b confl=%b share=%b just=%b" sn
          inst.voted_prepare (not not_equivocating) confirmed_conflict share_ok justification_ok
      else begin
        let missing = Datablock_pool.missing_links t.pool block.Bftblock.links in
        let availability_ok = missing = [] || justification <> None in
        if availability_ok then begin
          List.iter (Datablock_pool.mark_linked t.pool) block.Bftblock.links;
          inst.block <- Some block;
          inst.voted_prepare <- true;
          inst.voted_hash <- Some bh;
          Hashtbl.remove t.waiting_propose sn;
          let share = Ts.sign_share t.tkey (Msg.prepare_payload ~view:t.view ~block_hash:bh) in
          let vote = Msg.Prepare_vote { view = t.view; sn; block_hash = bh; share } in
          log_store t (Store.Logged_msg vote);
          send t ~dst:(leader_of t t.view) vote;
          inst.voted_at <- Some (now t);
          (* Only partial proposals set the clock: under load the leader
             proposes on BFTsize, and clock packs would only split
             datablocks that the α rule fills. *)
          if clocked t && justification = None then
            if List.length block.Bftblock.links < t.cfg.bft_size then arm_pack_clock t
            else disarm_pack_clock t;
          tracef t "vote.prepare" "sn%d" sn;
          (* A confirmation that overtook the proposal can complete now. *)
          replay_stashed_confirmation t inst;
          try_execute t
        end
        else begin
          (* Defer until the linked datablocks arrive; fetch from the
             leader after a grace period (it must have them, §4.3). The
             grace must cover the multicast serialization spread so
             data already in flight is not re-requested. *)
          Hashtbl.replace t.waiting_propose sn msg;
          schedule t ~delay:t.cfg.fetch_grace (fun () ->
              if active t && Hashtbl.mem t.waiting_propose sn then
                fetch_missing t (Datablock_pool.missing_links t.pool block.Bftblock.links))
        end
      end
    end
  | msg ->
    (* Only proposals reach this validator from [handle] and
       [retry_waiting_proposals]; anything else is a dispatch bug or a
       malformed replay — ignore it rather than kill the replica (an
       attacker-reachable panic is a one-message crash fault). *)
    tracef t "vote.unexpected" "%s" (Msg.kind_name (Msg.kind msg))

(* What [retry_waiting_proposals] does with a waiting entry right now:
   vote on it, drop it (below the watermark), or leave it. *)
type waiting = Ready | Stale | Wait

let classify_waiting t (m : Msg.t) =
  match m with
  | Msg.Propose { block; justification; _ } ->
    let sn = block.Bftblock.sn in
    if
      t.lw < sn && sn <= t.lw + t.cfg.k
      && block.Bftblock.view <= t.view && (not t.in_view_change)
      && (justification <> None || Datablock_pool.has_all_links t.pool block.Bftblock.links)
    then Ready
    else if sn <= t.lw then Stale
    else Wait
  | _ -> Wait

let retry_waiting_proposals t =
  (* This runs once per receiver of every datablock multicast. The common
     case at large n is "entries exist, none ready yet" (proposals wait on
     datablocks still spreading through the multicast); probe for that
     without allocating, and only snapshot the table when something is
     actually ready to retry or drop. *)
  if
    Hashtbl.length t.waiting_propose > 0
    && Hashtbl.fold (fun _ m any -> any || classify_waiting t m <> Wait) t.waiting_propose false
  then begin
    let pending = Hashtbl.fold (fun sn m acc -> (sn, m) :: acc) t.waiting_propose [] in
    List.iter
      (fun (sn, m) ->
        match classify_waiting t m with
        | Ready ->
          (* Re-run validation now that the prerequisite is met; the
             entry is cleared on a successful vote or re-deferred. *)
          Hashtbl.remove t.waiting_propose sn;
          let cost = t.cfg.cost.tsig_share in
          with_cpu t cost (fun () -> if active t then try_vote_prepare t m)
        | Stale -> Hashtbl.remove t.waiting_propose sn
        | Wait -> ())
      pending
  end

(* Checkpoint application can open the watermark window for deferred
   proposals. *)
let apply_checkpoint t cert =
  let before = t.lw in
  apply_checkpoint_cert t cert;
  if t.lw > before then retry_waiting_proposals t

(* ----------------------------------------------------------------- *)
(* View change                                                        *)
(* ----------------------------------------------------------------- *)

let timeout_voters t v =
  match Hashtbl.find_opt t.timeout_votes v with
  | Some set -> set
  | None ->
    let set = Hashtbl.create 8 in
    Hashtbl.add t.timeout_votes v set;
    set

let build_view_change t ~target =
  let entries =
    Hashtbl.fold
      (fun sn inst acc ->
        if sn > t.lw then
          match (inst.notarization, inst.block) with
          | Some proof, Some block -> (inst.notarized_view, block, proof) :: acc
          | _ -> acc
        else acc)
      t.instances []
  in
  let unsigned =
    Msg.{ vc_new_view = target;
          vc_sender = t.id;
          vc_checkpoint = t.latest_checkpoint;
          vc_entries = entries;
          vc_signature = Sig.sign t.sk "" }
  in
  { unsigned with Msg.vc_signature = Sig.sign t.sk (Msg.view_change_payload unsigned) }

let rec trigger_view_change t ~abandoned =
  (* [vc_sent_for] tracks the highest target view we sent a view-change
     message for; a later timeout may escalate past an unresponsive next
     leader even while still in view-change mode (the round-robin can
     land on a crashed replica again). *)
  if active t && abandoned >= t.view && t.vc_sent_for <= abandoned then begin
    let target = abandoned + 1 in
    t.in_view_change <- true;
    t.vc_sent_for <- target;
    bump t (fun m -> m.vc_triggers);
    t.hooks.on_view_change_trigger ~id:t.id ~abandoned;
    tracef t "viewchange.trigger" "abandoning v%d" abandoned;
    (* Amplify: make sure our own timeout vote is out so every honest
       replica reaches the f + 1 threshold. *)
    vote_timeout t ~abandoned;
    let vc = build_view_change t ~target in
    let cost =
      Sim_time.( + ) t.cfg.cost.sign
        (Int64.mul t.cfg.cost.tsig_share (Int64.of_int (List.length vc.Msg.vc_entries)))
    in
    with_cpu t cost (fun () ->
        if active t then begin
          send t ~dst:(leader_of t target) (Msg.View_change_msg vc);
          (* If the next leader is also faulty, give up on the next view
             after another timeout — doubled per consecutive attempt
             (PBFT's exponential backoff), so slow new-view validation
             can always outrun the escalation. *)
          let attempt = max 1 (target - t.view) in
          let backoff = Int64.mul t.cfg.view_timeout (Int64.of_int (1 lsl min 6 attempt)) in
          schedule t ~delay:backoff (fun () ->
              if active t && t.in_view_change && t.view < target then
                vote_timeout t ~abandoned:target)
        end)
  end

and vote_timeout t ~abandoned =
  if active t && abandoned >= t.view && t.sent_timeout_for < abandoned then begin
    t.sent_timeout_for <- abandoned;
    let payload = Msg.timeout_payload ~view:abandoned in
    with_cpu t t.cfg.cost.sign (fun () ->
        if active t then begin
          let signature = Sig.sign t.sk payload in
          multicast t (Msg.Timeout { view = abandoned; sender = t.id; signature });
          note_timeout t ~abandoned ~sender:t.id
        end)
  end

and note_timeout t ~abandoned ~sender =
  let set = timeout_voters t abandoned in
  Hashtbl.replace set sender ();
  (* f + 1 timeouts prove at least one honest replica gave up: join in
     (trigger condition (2), §4.3), which makes the remaining honest
     replicas reach 2f + 1 view-change messages. *)
  if Hashtbl.length set >= t.cfg.f + 1 && abandoned >= t.view && t.vc_sent_for <= abandoned then
    trigger_view_change t ~abandoned

(* A watched (re-sent) request that stays unconfirmed beyond the view
   timeout is the paper's trigger condition (1): one deadline per
   replica, not one per request (a re-send burst tags hundreds). Give up
   only once the view is also old enough and a full timeout without
   execution progress (PBFT restarts its timer on progress): a firing
   inside that grace re-arms at its end. An abandoned view arms nothing;
   entering the next one re-arms. *)
let rec arm_watchdog t =
  if active t && t.sent_timeout_for < t.view then
    let grace_end =
      Sim_time.(Sim_time.max t.view_entered_at t.last_execution_at + t.cfg.view_timeout)
    in
    match Watchdog.next_due t.watched ~timeout:t.cfg.view_timeout ~grace_end with
    | Some at when Sim_time.compare at (now t) <= 0 -> vote_timeout t ~abandoned:t.view
    | Some at -> arm t t.watch_due ~at (fun () -> arm_watchdog t)
    | None -> ()

let watch_request t batch =
  if active t then begin
    Watchdog.watch t.watched ~now:(now t) batch;
    arm_watchdog t
  end

let new_view_redo_plan vcs lw =
  (* For each serial above the adopted watermark, redo the notarized
     block from the highest view; fill gaps with dummies (§4.3). *)
  let best = Hashtbl.create 32 in
  List.iter
    (fun (vc : Msg.view_change) ->
      List.iter
        (fun (v, (block : Bftblock.t), proof) ->
          let sn = block.Bftblock.sn in
          if sn > lw then
            match Hashtbl.find_opt best sn with
            | Some (v0, _, _) when v0 >= v -> ()
            | _ -> Hashtbl.replace best sn (v, block, proof))
        vc.Msg.vc_entries)
    vcs;
  let max_sn = Hashtbl.fold (fun sn _ acc -> max sn acc) best lw in
  let plan = ref [] in
  for sn = max_sn downto lw + 1 do
    match Hashtbl.find_opt best sn with
    | Some entry -> plan := `Redo entry :: !plan
    | None -> plan := `Dummy sn :: !plan
  done;
  (!plan, max_sn)

let highest_checkpoint vcs =
  List.fold_left
    (fun acc (vc : Msg.view_change) ->
      match (acc, vc.Msg.vc_checkpoint) with
      | None, c -> c
      | Some a, Some c when c.Msg.cp_sn > a.Msg.cp_sn -> Some c
      | Some a, _ -> Some a)
    None vcs

let enter_view t ~nv_view ~vcs =
  t.view <- nv_view;
  t.in_view_change <- false;
  t.view_entered_at <- now t;
  t.sent_timeout_for <- max t.sent_timeout_for (nv_view - 1);
  t.vc_sent_for <- max t.vc_sent_for nv_view;
  (* Views only move forward: a restarted replica that forgot its view
     could prepare-vote twice for one serial under two leaders. *)
  log_store t (Store.Entered_view nv_view);
  (* Timeout votes and view-change messages for the views before this
     one can no longer trigger anything. *)
  Hashtbl.filter_map_inplace (fun v set -> if v < nv_view then None else Some set) t.timeout_votes;
  Hashtbl.filter_map_inplace (fun v tbl -> if v < nv_view then None else Some tbl) t.vc_msgs;
  (match highest_checkpoint vcs with
   | Some cert -> apply_checkpoint t cert
   | None -> ());
  let plan, max_sn = new_view_redo_plan vcs t.lw in
  bump t (fun m -> m.views);
  t.hooks.on_view_change ~id:t.id ~view:nv_view;
  tracef t "view.entered" "v%d (redo %d serials)" nv_view (List.length plan);
  (* Proposals from this view that overtook the new-view message. *)
  retry_waiting_proposals t;
  if is_leader t then begin
    (* The new leader stops producing datablocks; flush its mempool so
       the requests it holds are not stranded, capped at the admission
       bound if one is set (an overloaded backlog must not become one
       datablock burst into the new view). The rest waits for its
       clients' re-sends and the watchdog. *)
    let cap = Mempool.cap t.mempool in
    let batches = Mempool.take t.mempool ~target:(if cap > 0 then cap else max_int) in
    if batches <> [] then sign_and_send_datablock t batches;
    t.next_sn <- max t.next_sn (max_sn + 1);
    (* Unlink datablocks linked by abandoned (never-notarized) proposals
       so their requests are re-proposed rather than lost; the redo
       blocks keep theirs (executed datablocks never return to pending). *)
    let keep =
      List.fold_left
        (fun acc entry ->
          match entry with
          | `Redo (_, (block : Bftblock.t), _) ->
            List.fold_left (fun acc h -> Hash.Set.add h acc) acc block.Bftblock.links
          | `Dummy _ -> acc)
        Hash.Set.empty plan
    in
    Datablock_pool.relink_pending t.pool ~keep_linked:keep;
    List.iter
      (fun entry ->
        match entry with
        | `Redo (old_view, (block : Bftblock.t), proof) ->
          propose_block t (Bftblock.with_view block nv_view) (Some (old_view, proof))
        | `Dummy sn -> propose_block t (Bftblock.dummy ~view:nv_view ~sn) None)
      plan;
    maybe_propose t
  end
  else
    (* A demoted leader's mempool starts packing here. *)
    maybe_pack t;
  arm_watchdog t

(* The verified-notarization memo must not grow for the lifetime of the
   process: a socket-runtime replica runs for days, and every view change
   adds (view, hash) keys that never expire. When the cap is hit the
   whole table is dropped — re-verifying a proof is always correct (the
   memo is a pure-function cache), and a clear only costs one redundant
   verification per live proof. Both runs of a sim spec clear at the same
   instant, so determinism is unaffected. *)
let notar_cache_cap = 8192

let notar_cache_len t = Notar_table.length t.verified_notarizations

let bookkeeping_sizes t =
  [ ("executed_links", Datablock_pool.executed t.pool);
    ("pool_queue", Datablock_pool.queued t.pool);
    ("instances", Hashtbl.length t.instances);
    ("checkpoint_quorums", Hashtbl.length t.checkpoint_quorums);
    ("timeout_votes", Hashtbl.length t.timeout_votes);
    ("vc_msgs", Hashtbl.length t.vc_msgs) ]

let note_verified_notarization t key =
  if Notar_table.length t.verified_notarizations >= notar_cache_cap then
    Notar_table.reset t.verified_notarizations;
  Notar_table.replace t.verified_notarizations key ()

(* Entries whose notarization proof has not been verified before; the
   verification *cost* is charged only for these. *)
let fresh_entries t entries =
  List.filter
    (fun (v, block, _) ->
      not (Notar_table.mem t.verified_notarizations (v, Bftblock.hash block)))
    entries

let verify_view_change t (vc : Msg.view_change) =
  vc.Msg.vc_sender >= 0
  && vc.Msg.vc_sender < Array.length t.pks
  && Sig.verify t.pks.(vc.Msg.vc_sender) vc.Msg.vc_signature (Msg.view_change_payload vc)
  && List.for_all
       (fun (v, block, proof) ->
         let key = (v, Bftblock.hash block) in
         Notar_table.mem t.verified_notarizations key
         ||
         let ok =
           Ts.verify t.tsetup proof
             (Msg.prepare_payload ~view:v ~block_hash:(Bftblock.hash block))
         in
         if ok then note_verified_notarization t key;
         ok)
       vc.Msg.vc_entries

let on_view_change_verified t (vc : Msg.view_change) ~target =
  let tbl =
    match Hashtbl.find_opt t.vc_msgs target with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 16 in
      Hashtbl.add t.vc_msgs target tbl;
      tbl
  in
  Hashtbl.replace tbl vc.Msg.vc_sender vc;
  if Hashtbl.length tbl >= quorum_size t then begin
    t.new_view_sent_for <- target;
    let vcs = Hashtbl.fold (fun _ v acc -> v :: acc) tbl [] in
    let unsigned =
      Msg.{ nv_view = target; nv_sender = t.id; nv_vcs = vcs; nv_signature = Sig.sign t.sk "" }
    in
    let nv =
      { unsigned with Msg.nv_signature = Sig.sign t.sk (Msg.new_view_payload unsigned) }
    in
    with_cpu t t.cfg.cost.sign (fun () ->
        if active t then begin
          multicast t (Msg.New_view_msg nv);
          enter_view t ~nv_view:target ~vcs
        end)
  end

let on_view_change_msg t (vc : Msg.view_change) =
  let target = vc.Msg.vc_new_view in
  if target > t.view && is_leader_of t target && t.new_view_sent_for < target then begin
    let fresh = List.length (fresh_entries t vc.Msg.vc_entries) in
    let cost =
      Sim_time.( + ) t.cfg.cost.verify
        (Int64.mul t.cfg.cost.tvrf_aggregate (Int64.of_int fresh))
    in
    with_cpu t cost (fun () ->
        if active t && t.new_view_sent_for < target && verify_view_change t vc then
          on_view_change_verified t vc ~target)
  end

let on_new_view_msg t (nv : Msg.new_view) =
  if nv.Msg.nv_view > t.view && Net.Node_id.equal nv.Msg.nv_sender (leader_of t nv.Msg.nv_view)
  then begin
    (* The same notarization proof appears in up to 2f + 1 of the carried
       view-change messages; it is verified (and charged) once. *)
    let fresh =
      List.length
        (fresh_entries t (List.concat_map (fun vc -> vc.Msg.vc_entries) nv.Msg.nv_vcs)
        |> List.sort_uniq (fun (v1, b1, _) (v2, b2, _) ->
               compare (v1, Bftblock.hash b1) (v2, Bftblock.hash b2)))
    in
    let cost =
      Sim_time.( + )
        (Int64.mul t.cfg.cost.verify (Int64.of_int (1 + List.length nv.Msg.nv_vcs)))
        (Int64.mul t.cfg.cost.tvrf_aggregate (Int64.of_int fresh))
    in
    with_cpu t cost (fun () ->
        if active t && nv.Msg.nv_view > t.view then begin
          let sig_ok =
            Sig.verify t.pks.(nv.Msg.nv_sender) nv.Msg.nv_signature (Msg.new_view_payload nv)
          in
          let distinct_senders =
            List.sort_uniq Net.Node_id.compare (List.map (fun vc -> vc.Msg.vc_sender) nv.Msg.nv_vcs)
          in
          if sig_ok
             && List.length distinct_senders >= quorum_size t
             && List.for_all (fun vc -> vc.Msg.vc_new_view = nv.Msg.nv_view) nv.Msg.nv_vcs
             && List.for_all (verify_view_change t) nv.Msg.nv_vcs
          then enter_view t ~nv_view:nv.Msg.nv_view ~vcs:nv.Msg.nv_vcs
        end)
  end

(* ----------------------------------------------------------------- *)
(* Message dispatch                                                   *)
(* ----------------------------------------------------------------- *)

let on_datablock_verified t (db : Datablock.t) ~is_fetch_reply =
  (* A fetch reply we asked for is needed by a confirmed block: it passes
     the executed floor (an equivocator's other variant can sit in an
     executed slot). Anything else in an executed slot is a late copy or
     a replay, and must not become pending again. *)
  let requested = is_fetch_reply && Hash.Set.mem (Datablock.hash db) t.fetch_inflight in
  if is_fetch_reply then
    t.fetch_inflight <- Hash.Set.remove (Datablock.hash db) t.fetch_inflight;
  match Datablock_pool.add ~requested t.pool db with
  | Datablock_pool.Accepted ->
    (* Watch re-sent requests propagated in datablocks (§4.3). *)
    List.iter
      (fun b -> if b.Workload.Request.resend then watch_request t b)
      db.Datablock.batches;
    retry_waiting_proposals t;
    try_execute t;
    propose_on_arrival t
  | Datablock_pool.Duplicate -> ()
  | Datablock_pool.Executed ->
    tracef t "datablock.refused" "executed slot %a" Datablock.pp db
  | Datablock_pool.Equivocation first ->
    bump t (fun m -> m.equivocations);
    tracef t "equivocation" "from %a (first %a)" Net.Node_id.pp db.Datablock.header.creator
      Datablock.pp first;
    if t.cfg.punish_equivocators then begin
      (* §4.3 remark: the two conflicting signed headers are
         public evidence; kick the creator out. *)
      Hashtbl.replace t.punished db.Datablock.header.creator ();
      tracef t "punished" "%a" Net.Node_id.pp db.Datablock.header.creator
    end;
    (* The stored variant can unblock a proposal that links it. *)
    retry_waiting_proposals t;
    try_execute t

let on_datablock t (db : Datablock.t) ~is_fetch_reply =
  (* int-ns cost arithmetic: this runs once per receiver of every
     datablock multicast, the highest-rate CPU submission in the system *)
  let cost_ns =
    Int64.to_int t.cfg.cost.verify
    + Crypto.Cost_model.hash_cost_ns t.cfg.cost ~bytes_len:db.Datablock.payload_bytes
  in
  with_cpu_ns t cost_ns (fun () ->
      if active t && not (Hashtbl.mem t.punished db.Datablock.header.creator) then
        (* Merkle recompute + signature check, possibly on worker
           domains; the punished re-check matters only for the pooled
           dispatch (evidence may arrive while the crypto runs). *)
        verify_via t
          (Verify.Datablock_check { pks = t.pks; db })
          (fun ok ->
            if
              ok && active t
              && not (Hashtbl.mem t.punished db.Datablock.header.creator)
            then on_datablock_verified t db ~is_fetch_reply))

(* A vote share reaching this leader. The prepare and commit rounds
   differ only in the signed [payload] and in [collect], which adds a
   checked share to the round's quorum. The zero-cost hop orders the
   share check behind queued CPU work; dropping it would move the
   simulator's traces. *)
let on_vote_share t ~view ~sn ~payload ~share collect =
  if view = t.view && is_leader t && not t.in_view_change then
    with_cpu t 0L (fun () ->
        if active t && not t.in_view_change && view = t.view then begin
          let inst = instance_of t sn in
          (* Only valid shares enter the quorum (the CPU cost of the
             check is charged at aggregation); a Byzantine voter cannot
             poison the aggregate. *)
          if inst.iview = view && Ts.verify_share t.tsetup share payload then collect inst
        end)

let on_prepare_vote t ~view ~sn ~block_hash ~share =
  on_vote_share t ~view ~sn ~payload:(Msg.prepare_payload ~view ~block_hash) ~share
    (fun inst ->
      collect_share t ~slot:inst.prepare_quorum
        ~install:(fun q -> inst.prepare_quorum <- Some q)
        share (leader_finish_prepare t inst block_hash))

let on_commit_vote t ~view ~sn ~notar_digest ~share =
  on_vote_share t ~view ~sn ~payload:(Msg.commit_payload ~view ~notar_digest) ~share
    (fun inst ->
      collect_share t ~slot:inst.commit_quorum
        ~install:(fun q -> inst.commit_quorum <- Some q)
        share (leader_finish_commit t inst notar_digest))

let on_notarization t ~view ~sn ~block_hash ~proof =
  if view = t.view && not t.in_view_change then
    with_cpu t
      (Sim_time.( + ) t.cfg.cost.tvrf_aggregate t.cfg.cost.tsig_share)
      (fun () ->
        if active t && view = t.view && not t.in_view_change then begin
          let inst = instance_of t sn in
          (* the commit vote must be signed under the current view even
             if this instance saw no proposal in it yet *)
          refresh_instance_view t inst;
          let block_matches =
            match inst.block with
            | Some block -> Hash.equal (Bftblock.hash block) block_hash
            | None -> true (* the block body may still be in flight *)
          in
          if block_matches && Ts.verify t.tsetup proof (Msg.prepare_payload ~view ~block_hash)
          then begin
            (match inst.voted_at with
             | Some at ->
               inst.voted_at <- None;
               t.vote_rtt <- Some (Sim_time.( - ) (now t) at)
             | None -> ());
            (* The commit vote about to be cast binds us to this σ¹; keep
               the proof so a restarted replica can rebuild the binding. *)
            log_store t (Store.Logged_msg (Msg.Notarization { view; sn; block_hash; proof }));
            accept_notarization t inst proof
          end
        end)

(* The proof is checked before the instance is looked up: a garbage
   Confirmation must neither create an instance for its serial nor
   displace a stashed valid one. *)
let on_confirmation t ~view ~sn ~notar_digest ~proof =
  with_cpu t t.cfg.cost.tvrf_aggregate (fun () ->
      if active t && Ts.verify t.tsetup proof (Msg.commit_payload ~view ~notar_digest) then
        process_confirmation t (instance_of t sn) ~view ~notar_digest ~proof)

let on_checkpoint_vote t ~cp_sn ~cp_state ~share =
  if
    is_leader t && not t.in_view_change && cp_sn > t.lw
    && Ts.verify_share t.tsetup share (Msg.checkpoint_payload ~cp_sn ~cp_state)
  then begin
    let _, q =
      match Hashtbl.find_opt t.checkpoint_quorums cp_sn with
      | Some entry -> entry
      | None ->
        let entry = (cp_state, Quorum.create ~need:(quorum_size t)) in
        Hashtbl.add t.checkpoint_quorums cp_sn entry;
        entry
    in
    match Quorum.add q share with
    | Quorum.Ready shares ->
      let payload = Msg.checkpoint_payload ~cp_sn ~cp_state in
      let cost = Crypto.Cost_model.combine_cost t.cfg.cost ~shares:(List.length shares) in
      with_cpu t cost (fun () ->
          if active t then
            match Ts.combine t.tsetup payload shares with
            | None -> ()
            | Some proof ->
              let cert = Msg.{ cp_sn; cp_state; cp_proof = proof } in
              multicast t (Msg.Checkpoint_cert_msg cert);
              apply_checkpoint t cert)
    | Quorum.Pending _ | Quorum.Already_done -> ()
  end

let on_checkpoint_cert t (cert : Msg.checkpoint_cert) =
  with_cpu t t.cfg.cost.tvrf_aggregate (fun () ->
      if active t
         && Ts.verify t.tsetup cert.Msg.cp_proof
              (Msg.checkpoint_payload ~cp_sn:cert.Msg.cp_sn ~cp_state:cert.Msg.cp_state)
      then apply_checkpoint t cert)

let on_timeout_msg t ~view ~sender ~signature =
  with_cpu t t.cfg.cost.verify (fun () ->
      if active t
         && sender >= 0
         && sender < Array.length t.pks
         && Sig.verify t.pks.(sender) signature (Msg.timeout_payload ~view)
      then note_timeout t ~abandoned:view ~sender)

let on_fetch t ~src hash =
  match Datablock_pool.find t.pool hash with
  | Some db -> send t ~dst:src (Msg.Fetch_reply db)
  | None -> ()

let handle t ~src (msg : Msg.t) =
  if active t then
    match msg with
    | Msg.Datablock_msg db -> on_datablock t db ~is_fetch_reply:false
    | Msg.Fetch_reply db -> on_datablock t db ~is_fetch_reply:true
    | Msg.Propose { block; _ } ->
      tracef t "propose.received" "sn%d" block.Bftblock.sn;
      let cost = Sim_time.( + ) t.cfg.cost.tvrf_share t.cfg.cost.tsig_share in
      with_cpu t cost (fun () -> if active t then try_vote_prepare t msg)
    | Msg.Prepare_vote { view; sn; block_hash; share } ->
      on_prepare_vote t ~view ~sn ~block_hash ~share
    | Msg.Notarization { view; sn; block_hash; proof } ->
      on_notarization t ~view ~sn ~block_hash ~proof
    | Msg.Commit_vote { view; sn; notar_digest; share } ->
      on_commit_vote t ~view ~sn ~notar_digest ~share
    | Msg.Confirmation { view; sn; notar_digest; proof } ->
      on_confirmation t ~view ~sn ~notar_digest ~proof
    | Msg.Checkpoint_vote { cp_sn; cp_state; share } -> on_checkpoint_vote t ~cp_sn ~cp_state ~share
    | Msg.Checkpoint_cert_msg cert -> on_checkpoint_cert t cert
    | Msg.Timeout { view; sender; signature } -> on_timeout_msg t ~view ~sender ~signature
    | Msg.View_change_msg vc -> on_view_change_msg t vc
    | Msg.New_view_msg nv -> on_new_view_msg t nv
    | Msg.Fetch { hash } -> on_fetch t ~src hash

(* ----------------------------------------------------------------- *)
(* Construction                                                       *)
(* ----------------------------------------------------------------- *)

(* Admission verdicts surfaced to the submitting client (both planes). *)
type reject_reason = Mempool.reject_reason = Mempool_full | Inactive
type admission = Mempool.admission = Admitted | Rejected of reject_reason

let submit t batch =
  if not (active t) then Rejected Inactive
  else
    let idle = idle t in
    match Mempool.try_add t.mempool batch with
    | Mempool.Admitted ->
      if batch.Workload.Request.resend then watch_request t batch;
      maybe_pack ?idle:(if idle then Some batch else None) t;
      Admitted
    | Mempool.Rejected reason ->
      let count = batch.Workload.Request.count in
      t.submits_rejected <- t.submits_rejected + count;
      bump_by t (fun m -> m.submit_rejected) count;
      Rejected reason

let start t =
  (match t.strategy with
   | Byzantine.Crash_at at ->
     t.platform.Platform.schedule_at ~at (fun () ->
         t.crashed <- true;
         t.platform.Platform.set_down true;
         Trace.recordf t.trace ~at:(now t) ~tag:"crash" "%a" Net.Node_id.pp t.id)
   | Byzantine.Honest | Byzantine.Silent | Byzantine.Equivocate_datablocks | Byzantine.Censor ->
     ());
  (* A recovered leader proposes what its restored pool holds. *)
  if active t then maybe_propose t

let create ~platform ~cfg ~id ~sk ~pks ~tsetup ~tkey ?obs ?(strategy = Byzantine.Honest)
    ?(hooks = no_hooks) ?trace () =
  let trace = match trace with Some tr -> tr | None -> Trace.create ~enabled:false () in
  let ms =
    Option.map
      (fun reg ->
        (* Idempotent registration: a replica recovered after a crash
           re-attaches to the same counters instead of shadowing them. *)
        let labels = [ ("replica", string_of_int id) ] in
        let c name help = Obs.Registry.counter reg ~help ~labels name in
        { commits = c "leopard_replica_commits_total" "blocks executed";
          datablocks = c "leopard_replica_datablocks_total" "datablocks created";
          clock_packs =
            c "leopard_replica_clock_packs_total"
              "datablocks packed by the proposal clock (counted in datablocks too)";
          idle_packs =
            c "leopard_replica_idle_packs_total"
              "datablocks packed by the idle pack (counted in datablocks too)";
          views = c "leopard_replica_views_entered_total" "views entered via new-view";
          vc_triggers = c "leopard_replica_vc_triggers_total" "view changes triggered";
          equivocations =
            c "leopard_replica_equivocation_witness_total" "equivocations witnessed";
          checkpoints = c "leopard_replica_checkpoints_total" "checkpoint certs advanced lw";
          submit_rejected =
            c "leopard_replica_submit_rejected_total"
              "client requests refused at mempool admission" })
      obs
  in
  let t =
    { platform;
      ms;
      cfg;
      id;
      sk;
      pks;
      tsetup;
      tkey;
      strategy;
      hooks;
      trace;
      mempool = Mempool.create ~cap:cfg.Config.mempool_cap ();
      pool = Datablock_pool.create ();
      instances = Hashtbl.create 64;
      ledger = Ledger.create ();
      view = 1;
      lw = 0;
      next_sn = 1;
      db_counter = 1;
      state_hash = Hash.of_string "genesis";
      latest_checkpoint = None;
      checkpoint_quorums = Hashtbl.create 16;
      waiting_propose = Hashtbl.create 16;
      fetch_inflight = Hash.Set.empty;
      in_view_change = false;
      timeout_votes = Hashtbl.create 8;
      sent_timeout_for = 0;
      vc_sent_for = 0;
      view_entered_at = Sim_time.zero;
      last_execution_at = Sim_time.zero;
      vc_msgs = Hashtbl.create 8;
      new_view_sent_for = 0;
      watched = Watchdog.create ();
      verified_notarizations = Notar_table.create 64;
      crashed = false;
      recovering = false;
      last_partial_pack = Sim_time.zero;
      last_partial_propose = Sim_time.zero;
      propose_queued = false;
      timer_packing = true;
      vote_rtt = None;
      idle_copy = None;
      idle_from = Sim_time.zero;
      age_due = ref never;
      clock_due = ref never;
      propose_due = ref never;
      watch_due = ref never;
      punished = Hashtbl.create 4;
      submits_rejected = 0 }
  in
  platform.Platform.set_handler (fun ~src msg -> handle t ~src msg);
  t

(* ----------------------------------------------------------------- *)
(* Crash-restart recovery                                             *)
(* ----------------------------------------------------------------- *)

let halt t =
  t.crashed <- true;
  t.platform.Platform.set_down true;
  tracef t "halt" "%a" Net.Node_id.pp t.id

(* Replay one durable record into a fresh replica. State is written
   directly — the messages it describes were our own emissions, already
   validated before they were logged — but always guarded so that a
   record from before the snapshot's watermark (or from an abandoned
   view) cannot roll newer state back. *)
let replay_record t (r : Store.record) =
  match r with
  | Store.Db_counter c -> t.db_counter <- max t.db_counter c
  | Store.Entered_view v ->
    if v > t.view then begin
      t.view <- v;
      t.in_view_change <- false;
      t.sent_timeout_for <- max t.sent_timeout_for (v - 1);
      t.vc_sent_for <- max t.vc_sent_for v
    end
  | Store.Confirmed_block block -> Ledger.confirm t.ledger block
  | Store.Logged_msg msg -> (
    match msg with
    | Msg.Propose { block; _ } ->
      (* Our own proposal: as leader we also prepare-voted for it. *)
      let sn = block.Bftblock.sn in
      if block.Bftblock.view > t.view then t.view <- block.Bftblock.view;
      if sn > t.lw then begin
        let inst = instance_of t sn in
        if block.Bftblock.view >= inst.iview then begin
          inst.iview <- block.Bftblock.view;
          inst.block <- Some block;
          inst.voted_prepare <- true;
          inst.voted_hash <- Some (Bftblock.hash block)
        end
      end;
      List.iter (Datablock_pool.mark_linked t.pool) block.Bftblock.links;
      t.next_sn <- max t.next_sn (sn + 1)
    | Msg.Prepare_vote { view; sn; block_hash; _ } ->
      if view > t.view then t.view <- view;
      if sn > t.lw then begin
        let inst = instance_of t sn in
        if view >= inst.iview then begin
          inst.iview <- view;
          inst.voted_prepare <- true;
          inst.voted_hash <- Some block_hash
        end
      end
    | Msg.Commit_vote { view; sn; _ } ->
      if sn > t.lw then begin
        let inst = instance_of t sn in
        if view >= inst.iview then begin
          inst.iview <- view;
          inst.voted_commit <- true
        end
      end
    | Msg.Notarization { view; sn; proof; _ } ->
      if sn > t.lw then begin
        let inst = instance_of t sn in
        if view >= inst.notarized_view then begin
          inst.notarization <- Some proof;
          inst.notarized_view <- view
        end
      end
    | Msg.Checkpoint_cert_msg cert -> apply_checkpoint_cert t cert
    | _ -> ())

let recover ~platform ~cfg ~id ~sk ~pks ~tsetup ~tkey ?obs ?strategy ?hooks ?trace () =
  let t = create ~platform ~cfg ~id ~sk ~pks ~tsetup ~tkey ?obs ?strategy ?hooks ?trace () in
  let sink = platform.Platform.store in
  if sink.Store.enabled then begin
    t.recovering <- true;
    let snap, records = sink.Store.load () in
    (match snap with
     | Some s ->
       if s.Store.snap_view > t.view then t.view <- s.Store.snap_view;
       t.sent_timeout_for <- max t.sent_timeout_for (t.view - 1);
       t.vc_sent_for <- max t.vc_sent_for (t.view - 1);
       t.lw <- s.Store.snap_lw;
       t.next_sn <- s.Store.snap_next_sn;
       t.db_counter <- s.Store.snap_db_counter;
       t.state_hash <- s.Store.snap_state_hash;
       t.latest_checkpoint <- s.Store.snap_checkpoint;
       List.iter (fun (db, _) -> ignore (Datablock_pool.add t.pool db)) s.Store.snap_datablocks;
       List.iter
         (fun (db, linked) ->
           if linked then Datablock_pool.mark_linked t.pool (Datablock.hash db))
         s.Store.snap_datablocks;
       (* After the datablocks: a pool entry may sit below its floor. *)
       Datablock_pool.restore_floors t.pool s.Store.snap_executed_floors;
       List.iter (Ledger.confirm t.ledger) s.Store.snap_blocks;
       Ledger.fast_forward t.ledger s.Store.snap_executed_up_to;
       List.iter
         (fun (sn, (block : Bftblock.t)) ->
           List.iter (fun h -> Datablock_pool.mark_executed t.pool h ~sn) block.Bftblock.links)
         (Ledger.executed_range t.ledger ~from_:t.lw);
       List.iter
         (fun (i : Store.inst_snap) ->
           let inst = instance_of t i.Store.s_sn in
           inst.iview <- i.Store.s_iview;
           inst.block <- i.Store.s_block;
           inst.voted_prepare <- i.Store.s_voted_prepare;
           inst.voted_hash <- i.Store.s_voted_hash;
           inst.voted_commit <- i.Store.s_voted_commit;
           inst.notarized_view <- i.Store.s_notarized_view;
           inst.notarization <- i.Store.s_notarization)
         s.Store.snap_instances
     | None -> ());
    List.iter (replay_record t) records;
    (* Re-execute the confirmed suffix locally (acks and hooks stay
       suppressed — the world already saw them). *)
    try_execute t;
    t.recovering <- false;
    (* The clock moved while we were down; restart the progress markers
       so the watchdog measures from the revival, not the crash. *)
    t.view_entered_at <- now t;
    t.last_execution_at <- now t;
    tracef t "recovered" "view=%d lw=%d executed=%d" t.view t.lw
      (Ledger.executed_up_to t.ledger)
  end;
  t

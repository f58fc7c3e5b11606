open Sim

(* Per-serial bookkeeping: executions seen so far and the instant the
   serial was first proposed (the start of the agreement stage). *)
type serial = {
  mutable execs : int;
  mutable proposed_at : Sim_time.t option;
}

type t = {
  cfg : Config.t;
  now : unit -> Sim_time.t;
  schedule : delay:Sim_time.span -> (unit -> unit) -> unit;
  deliver : dst:Net.Node_id.t -> size:int -> (unit -> unit) -> unit;
  on_confirm :
    now:Sim_time.t -> proposed_at:Sim_time.t option -> Datablock.t -> Workload.Request.t -> unit;
  mutable replicas : Replica.t array;
  strategies : Byzantine.t array;
  (* retained so [restart] can rebuild a replica mid-run *)
  keys : (Crypto.Signature.public_key * Crypto.Signature.private_key) array;
  tsetup : Crypto.Threshold.setup;
  tkeys : Crypto.Threshold.member_key array;
  hooks : Replica.hooks;
  trace : Trace.t;
  obs : Obs.Registry.t option;
  (* f+1 accounting. [serials] is pruned when a checkpoint advances the
     low watermark ([prune_below]); [pruned_below] stops a lagging
     replica's late execution of a pruned serial from being counted
     from scratch. [outstanding] holds the ids of offered, not yet
     counted batches: membership is the dedup rule (fan-out copies and
     re-sends share the id), so the table is bounded by the unconfirmed
     backlog. *)
  serials : (int, serial) Hashtbl.t;
  mutable pruned_below : int;
  outstanding : (int, unit) Hashtbl.t;
  latency : Obs.Histogram.t;
  obs_confirm : (Obs.Histogram.t * Obs.Counter.t) option;
  mutable confirmed : int;
  mutable executed_blocks : int;
  mutable pack_age_max : Sim_time.span;
  (* Unconfirmed batches ordered by next re-send deadline (ns key, batch
     id as tiebreak; the value carries the attempt count for the
     backoff). One scan is armed at the head's deadline ([scan_at], in
     ns, [max_int] when none is; none past [scan_until]) and pops only
     the due entries; confirmed batches are dropped lazily then. *)
  resend : Sim_time.span option;
  resend_queue : (Workload.Request.t * int) Heap.t;
  mutable scan_at : int;
  mutable scan_until : Sim_time.t;
  mutable resends : int;
  mutable max_view_entered : int;
  mutable first_vc_trigger : Sim_time.t option;
  mutable last_view_entry : Sim_time.t option;
}

let replicas t = t.replicas
let is_byzantine t id = Byzantine.is_byzantine t.strategies.(id)
let confirmed t = t.confirmed
let executed_blocks t = t.executed_blocks
let pack_age_max t = t.pack_age_max
let latency t = Obs.Histogram.snapshot t.latency
let resends t = t.resends
let view_changes t = t.max_view_entered - 1

let honest_ids t =
  List.filter (fun id -> not (is_byzantine t id)) (List.init t.cfg.Config.n Fun.id)

let f_plus_1 t = Config.max_faulty t.cfg + 1

let serial t sn =
  match Hashtbl.find_opt t.serials sn with
  | Some s -> s
  | None ->
    let s = { execs = 0; proposed_at = None } in
    Hashtbl.add t.serials sn s;
    s

(* The (f+1)-th execution of a serial is the client-visible confirmation
   instant (a valid client response needs f+1 identical acks, §4.1). *)
let on_f1_execution t ~proposed_at dbs =
  let now = t.now () in
  t.executed_blocks <- t.executed_blocks + 1;
  List.iter
    (fun (db : Datablock.t) ->
      List.iter
        (fun (b : Workload.Request.t) ->
          let id = b.Workload.Request.id in
          if Hashtbl.mem t.outstanding id then begin
            Hashtbl.remove t.outstanding id;
            let count = b.Workload.Request.count in
            let lat = Sim_time.(now - b.Workload.Request.born) in
            t.confirmed <- t.confirmed + count;
            Obs.Histogram.record t.latency (Int64.to_int lat);
            (* A re-sent copy keeps its original birth; a Byzantine
               creator packs on rules of its own. *)
            if not (b.Workload.Request.resend || is_byzantine t db.Datablock.header.creator)
            then begin
              let age = Sim_time.(db.Datablock.created_at - b.Workload.Request.born) in
              if Sim_time.compare age t.pack_age_max > 0 then t.pack_age_max <- age
            end;
            (match t.obs_confirm with
             | Some (h, c) ->
               Obs.Histogram.record h (Int64.to_int lat);
               Obs.Counter.add c count
             | None -> ());
            t.on_confirm ~now ~proposed_at db b
          end)
        db.Datablock.batches)
    dbs

(* Once the low watermark reaches [lw], no serial at or below it can
   produce a fresh (f+1)-th execution. Runs once per watermark value (n
   replicas report the same advance). *)
let prune_below t lw =
  if lw > t.pruned_below then begin
    t.pruned_below <- lw;
    let stale = Hashtbl.fold (fun sn _ acc -> if sn <= lw then sn :: acc else acc) t.serials [] in
    List.iter (Hashtbl.remove t.serials) stale
  end

let make_hooks t_ref =
  let with_t f = match !t_ref with None -> () | Some t -> f t in
  { Replica.on_execute =
      (fun ~id:_ ~sn _block dbs ->
        with_t (fun t ->
            if sn > t.pruned_below then begin
              let s = serial t sn in
              s.execs <- s.execs + 1;
              if s.execs = f_plus_1 t then on_f1_execution t ~proposed_at:s.proposed_at dbs
            end));
    on_view_change =
      (fun ~id:_ ~view ->
        with_t (fun t ->
            t.max_view_entered <- max t.max_view_entered view;
            t.last_view_entry <- Some (t.now ())));
    on_view_change_trigger =
      (fun ~id:_ ~abandoned:_ ->
        with_t (fun t ->
            if t.first_vc_trigger = None then t.first_vc_trigger <- Some (t.now ())));
    on_propose =
      (fun ~id:_ ~sn ~at ->
        with_t (fun t ->
            let s = serial t sn in
            if s.proposed_at = None then s.proposed_at <- Some at));
    on_checkpoint = (fun ~id:_ ~lw -> with_t (fun t -> prune_below t lw)) }

let create ~cfg ~key_rng ~platform ~now ~schedule ~deliver ~byzantine ~resend ~trace ?obs
    ?(on_confirm = fun ~now:_ ~proposed_at:_ _ _ -> ()) () =
  let n = cfg.Config.n in
  let keys = Array.init n (fun _ -> Crypto.Signature.keygen key_rng) in
  let pks = Array.map fst keys in
  let tsetup, tkeys =
    Crypto.Threshold.keygen key_rng ~threshold:(2 * cfg.Config.f) ~parties:n
  in
  let strategies = Array.make n Byzantine.Honest in
  List.iter (fun (id, s) -> strategies.(id) <- s) byzantine;
  let t_ref = ref None in
  let hooks = make_hooks t_ref in
  let t =
    { cfg;
      now;
      schedule;
      deliver;
      on_confirm;
      replicas = [||];
      strategies;
      keys;
      tsetup;
      tkeys;
      hooks;
      trace;
      obs;
      serials = Hashtbl.create 1024;
      pruned_below = 0;
      outstanding = Hashtbl.create 1024;
      latency = Obs.Histogram.create ();
      obs_confirm =
        Option.map
          (fun reg ->
            ( Obs.Registry.histogram reg ~help:"submit to f+1-confirm latency (ns)"
                "leopard_confirm_latency_ns",
              Obs.Registry.counter reg ~help:"client requests confirmed"
                "leopard_confirmed_requests_total" ))
          obs;
      confirmed = 0;
      executed_blocks = 0;
      pack_age_max = 0L;
      resend;
      resend_queue = Heap.create ();
      scan_at = max_int;
      scan_until = Int64.min_int;
      resends = 0;
      max_view_entered = 1;
      first_vc_trigger = None;
      last_view_entry = None }
  in
  t_ref := Some t;
  t.replicas <-
    Array.init n (fun id ->
        Replica.create ~platform:(platform id) ~cfg ~id ~sk:(snd keys.(id)) ~pks ~tsetup
          ~tkey:tkeys.(id) ?obs ~strategy:strategies.(id) ~hooks ~trace ());
  Array.iter Replica.start t.replicas;
  t

(* Re-send to several deterministically chosen replicas; §4.1: s = 9
   already gives > 99.99% probability of hitting an honest one (f + 1
   would guarantee it but floods large clusters). *)
let resend_batch t (b : Workload.Request.t) =
  let copy = Workload.Request.resend_of b in
  let n = t.cfg.Config.n in
  let fanout = min 9 (min (f_plus_1 t) (n - 1)) in
  let leader = Config.leader_of_view t.cfg 1 in
  List.iter
    (fun dst ->
      t.resends <- t.resends + 1;
      t.deliver ~dst ~size:(Workload.Request.wire_bytes copy) (fun () ->
          ignore (Replica.submit t.replicas.(dst) copy : Replica.admission)))
    (Workload.Assign.replicas_for ~n ~s:fanout ~leader ~key:b.Workload.Request.id)

(* A firing that is no longer the armed scan does nothing. *)
let rec arm_scan t =
  if not (Heap.is_empty t.resend_queue) then begin
    let at = Heap.peek_key_ns t.resend_queue in
    if at < t.scan_at && Int64.compare (Int64.of_int at) t.scan_until <= 0 then begin
      t.scan_at <- at;
      t.schedule ~delay:Int64.(sub (of_int at) (t.now ())) (fun () -> if t.scan_at = at then scan t)
    end
  end

and scan t =
  t.scan_at <- max_int;
  let timeout_ns = Int64.to_int (Option.get t.resend) in
  let now_ns = Int64.to_int (t.now ()) in
  while (not (Heap.is_empty t.resend_queue)) && Heap.peek_key_ns t.resend_queue <= now_ns do
    let b, attempts = Heap.pop_value t.resend_queue in
    (* Confirmed either through the client's own copy (a replica
       executed it) or by f+1 executions of any copy. *)
    if (not (Workload.Request.is_confirmed b)) && Hashtbl.mem t.outstanding b.Workload.Request.id
    then begin
      resend_batch t b;
      (* Capped exponential backoff: a recovering cluster is not
         re-flooded with its whole backlog every period. *)
      let attempts = attempts + 1 in
      let wait_ns = timeout_ns * min 8 (1 lsl attempts) in
      Heap.add_ns t.resend_queue ~key_ns:(now_ns + wait_ns) ~seq:b.Workload.Request.id
        (b, attempts)
    end
  done;
  arm_scan t

let offer t (b : Workload.Request.t) =
  let id = b.Workload.Request.id in
  Hashtbl.replace t.outstanding id ();
  match t.resend with
  | None -> ()
  | Some timeout ->
    Heap.add_ns t.resend_queue
      ~key_ns:(Int64.to_int b.Workload.Request.born + Int64.to_int timeout)
      ~seq:id (b, 0);
    arm_scan t

let arm_resends t ?(until = Int64.max_int) () =
  t.scan_until <- until;
  arm_scan t

let vc_trigger_to_entry t =
  match (t.first_vc_trigger, t.last_view_entry) with
  | Some a, Some b when Sim_time.compare b a > 0 -> Some (Sim_time.to_sec Sim_time.(b - a))
  | _ -> None

let executed_up_to t id = Ledger.executed_up_to (Replica.ledger t.replicas.(id))

let final_view t =
  List.fold_left (fun acc id -> max acc (Replica.view t.replicas.(id))) 1 (honest_ids t)

let honest_frontier t =
  List.fold_left (fun acc id -> max acc (executed_up_to t id)) 0 (honest_ids t)

let synced t id =
  let exec = executed_up_to t id in
  exec > 0 && exec + t.cfg.Config.k >= honest_frontier t

let equivocations t =
  List.fold_left
    (fun acc id ->
      acc + List.length (Datablock_pool.equivocations (Replica.pool t.replicas.(id))))
    0 (honest_ids t)

let ledgers_agree t =
  let agree l1 l2 =
    let upto = min (Ledger.executed_up_to l1) (Ledger.executed_up_to l2) in
    let rec go sn =
      if sn > upto then true
      else
        match (Ledger.get l1 sn, Ledger.get l2 sn) with
        | Some a, Some b -> Bftblock.equal_content a b && go (sn + 1)
        | _ -> go (sn + 1) (* pruned below a checkpoint: vacuously fine *)
    in
    go 1
  in
  match List.map (fun id -> Replica.ledger t.replicas.(id)) (honest_ids t) with
  | [] -> true
  | first :: rest -> List.for_all (agree first) rest

let restart t id ~platform =
  Replica.halt t.replicas.(id);
  let r =
    Replica.recover ~platform ~cfg:t.cfg ~id ~sk:(snd t.keys.(id)) ~pks:(Array.map fst t.keys)
      ~tsetup:t.tsetup ~tkey:t.tkeys.(id) ?obs:t.obs ~strategy:t.strategies.(id) ~hooks:t.hooks
      ~trace:t.trace ()
  in
  t.replicas.(id) <- r;
  platform.Platform.set_down false;
  Replica.start r

let bookkeeping_sizes t =
  [ ("serials", Hashtbl.length t.serials);
    ("outstanding", Hashtbl.length t.outstanding);
    ("resend_queue", Heap.length t.resend_queue) ]

type entry = {
  batch : Workload.Request.t;
  since : Sim.Sim_time.t;
}

type t = {
  ids : (int, unit) Hashtbl.t;
  queue : entry Queue.t;
  (* Confirmed requests behind an unconfirmed head are dropped only when
     the queue reaches this length, which then doubles past what is
     left: memory stays within twice the live set, amortised O(1). *)
  mutable compact_at : int;
}

let min_compact = 64

let create () = { ids = Hashtbl.create 64; queue = Queue.create (); compact_at = min_compact }

let length t = Queue.length t.queue

let drop t e = Hashtbl.remove t.ids e.batch.Workload.Request.id

let compact t =
  let live = Queue.create () in
  Queue.iter
    (fun e -> if Workload.Request.is_confirmed e.batch then drop t e else Queue.push e live)
    t.queue;
  Queue.clear t.queue;
  Queue.transfer live t.queue;
  t.compact_at <- max min_compact (2 * Queue.length t.queue)

let watch t ~now batch =
  if not (Workload.Request.is_confirmed batch) then begin
    let id = batch.Workload.Request.id in
    if not (Hashtbl.mem t.ids id) then begin
      Hashtbl.replace t.ids id ();
      Queue.push { batch; since = now } t.queue;
      if Queue.length t.queue >= t.compact_at then compact t
    end
  end

let rec next_due t ~timeout ~grace_end =
  match Queue.peek_opt t.queue with
  | None -> None
  | Some e when Workload.Request.is_confirmed e.batch ->
    drop t (Queue.pop t.queue);
    next_due t ~timeout ~grace_end
  | Some e -> Some (Sim.Sim_time.max Sim.Sim_time.(e.since + timeout) grace_end)

open Workload

type reject_reason = Mempool_full | Inactive

type admission = Admitted | Rejected of reject_reason

type t = {
  queue : Request.t Queue.t;
  mutable pending : int; (* request count, including not-yet-skipped confirmed *)
  cap : int;             (* admission bound on [pending]; 0 = unbounded *)
  max_age : Sim.Sim_time.span; (* eviction age for unconfirmed batches; 0 = off *)
}

let create ?(cap = 0) ?(max_age = 0L) () =
  { queue = Queue.create (); pending = 0; cap; max_age }

let cap t = t.cap

let add t b =
  Queue.push b t.queue;
  t.pending <- t.pending + b.Request.count

let drop_confirmed_head t =
  let rec go () =
    match Queue.peek_opt t.queue with
    | Some b when Request.is_confirmed b ->
      ignore (Queue.pop t.queue);
      t.pending <- t.pending - b.Request.count;
      go ()
    | Some _ | None -> ()
  in
  go ()

let pending_requests t =
  drop_confirmed_head t;
  t.pending

let is_empty t = pending_requests t = 0

let try_add t b =
  if t.cap > 0 && pending_requests t + b.Request.count > t.cap then
    Rejected Mempool_full
  else begin
    add t b;
    Admitted
  end

let evict_expired t ~now =
  if Int64.compare t.max_age 0L <= 0 then 0
  else begin
    (* The queue is FIFO by birth, so expired batches form a prefix
       (up to interleaved confirmed batches, dropped for free). *)
    let evicted = ref 0 in
    let rec go () =
      drop_confirmed_head t;
      match Queue.peek_opt t.queue with
      | Some b
        when Sim.Sim_time.compare
               Sim.Sim_time.(now - b.Request.born)
               t.max_age >= 0 ->
        ignore (Queue.pop t.queue);
        t.pending <- t.pending - b.Request.count;
        evicted := !evicted + b.Request.count;
        go ()
      | Some _ | None -> ()
    in
    go ();
    !evicted
  end

let take t ~target =
  if target <= 0 then []
  else
    let rec go acc got =
      drop_confirmed_head t;
      if got >= target then List.rev acc
      else
        match Queue.peek_opt t.queue with
        | None -> List.rev acc
        | Some b ->
          (* Whole batches only: a confirmation flag belongs to exactly one
             datablock. Overshoot is bounded by one client batch, which is
             small next to a datablock. *)
          ignore (Queue.pop t.queue);
          t.pending <- t.pending - b.Request.count;
          go (b :: acc) (got + b.Request.count)
    in
    go [] 0

let has_at_least t target = pending_requests t >= target

let oldest_age t ~now =
  drop_confirmed_head t;
  match Queue.peek_opt t.queue with
  | None -> None
  | Some b -> Some (Sim.Sim_time.( - ) now b.Request.born)

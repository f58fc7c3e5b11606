open Workload

type reject_reason = Mempool_full | Inactive

type admission = Admitted | Rejected of reject_reason

type t = {
  queue : Request.t Queue.t;
  mutable pending : int; (* request count, including not-yet-skipped confirmed *)
  cap : int;             (* admission bound on [pending]; 0 = unbounded *)
}

let create ?(cap = 0) () = { queue = Queue.create (); pending = 0; cap }

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

let try_add t b =
  if t.cap > 0 && pending_requests t + b.Request.count > t.cap then
    Rejected Mempool_full
  else begin
    add t b;
    Admitted
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

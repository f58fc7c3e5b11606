open Sim

type rule = Alpha | Age | Idle | Clock | Flush

type seam = {
  now : unit -> Sim_time.t;
  schedule_at : at:Sim_time.t -> (unit -> unit) -> unit;
  may_pack : idle:bool -> bool;
  emit : rule -> Workload.Request.t list -> unit;
}

type t = {
  seam : seam;
  alpha : int;
  timeout : Sim_time.span;  (* datablock_timeout, T *)
  proposal_timeout : Sim_time.span;
  mempool : Mempool.t;
  mutable last_partial_pack : Sim_time.t;
  mutable timer_packing : bool;  (* from an age-rule pack to the next α-full one *)
  (* the idle pack's copy, the earliest instant of the next idle pack
     (the last datablock's send + T), and the batch the last [offer]
     found idle *)
  mutable idle_copy : Workload.Request.t option;
  mutable idle_from : Sim_time.t;
  mutable idle_batch : Workload.Request.t option;
  age_due : Deadline.t;
  clock_due : Deadline.t;
}

let create seam ~alpha ~datablock_timeout ~proposal_timeout ?(mempool_cap = 0) () =
  { seam;
    alpha;
    timeout = datablock_timeout;
    proposal_timeout;
    mempool = Mempool.create ~cap:mempool_cap ();
    last_partial_pack = Sim_time.zero;
    timer_packing = true;
    idle_copy = None;
    idle_from = Sim_time.zero;
    idle_batch = None;
    age_due = Deadline.create seam.schedule_at;
    clock_due = Deadline.create seam.schedule_at }

let mempool p = p.mempool
let now p = p.seam.now ()
let timed p = Int64.compare p.timeout 0L > 0

let emit p rule batches =
  p.idle_from <- Sim_time.( + ) (now p) p.timeout;
  p.seam.emit rule batches

let offer p b =
  (* read before the admission: only an empty mempool idle packs *)
  let idle =
    p.seam.may_pack ~idle:true
    && Option.is_none p.idle_copy
    && timed p
    && Sim_time.compare (now p) p.last_partial_pack > 0
    && Sim_time.compare (now p) p.idle_from >= 0
    && Mempool.pending_requests p.mempool = 0
  in
  let verdict = Mempool.try_add p.mempool b in
  if idle && verdict = Mempool.Admitted then p.idle_batch <- Some b;
  verdict

(* The mempool as the packing rules see it: an open copy heads it. *)
let head_age p =
  match p.idle_copy with
  | Some b -> Some Sim_time.(now p - b.Workload.Request.born)
  | None -> Mempool.oldest_age p.mempool ~now:(now p)

let copy_count p = match p.idle_copy with Some b -> b.Workload.Request.count | None -> 0

(* [target] requests' worth of batches, the copy's counted first; the
   pack closes the copy. *)
let take_for_pack p ~target =
  let held = copy_count p in
  p.idle_copy <- None;
  Mempool.take p.mempool ~target:(target - held)

let rec pack p =
  let idle = p.idle_batch in
  p.idle_batch <- None;
  if p.seam.may_pack ~idle:false then begin
    let stale =
      timed p
      && match head_age p with
         | Some age -> Sim_time.compare age p.timeout >= 0
         | None -> false
    in
    if Mempool.has_at_least p.mempool (p.alpha - copy_count p) then begin
      (* α fills within a cycle: a clock pack would only split the next
         full datablock, so the clock stops until the age rule packs. *)
      p.timer_packing <- false;
      Deadline.disarm p.clock_due;
      let batches = take_for_pack p ~target:p.alpha in
      if batches <> [] then emit p Alpha batches
    end
    else if stale && Sim_time.compare (now p) p.last_partial_pack > 0 then begin
      p.timer_packing <- true;
      p.last_partial_pack <- Sim_time.( + ) (now p) p.timeout;
      let batches = take_for_pack p ~target:max_int in
      if batches <> [] then emit p Age batches
    end
    else
      Option.iter
        (fun b ->
          (* The mempool holds b alone. *)
          let batches = Mempool.take p.mempool ~target:max_int in
          p.idle_copy <- Some b;
          emit p Idle batches)
        idle;
    arm_age_deadline p
  end

(* The head's birth (the client's instant) + T, once the partial-pack
   rate limit has reopened. *)
and arm_age_deadline p =
  if timed p then
    match head_age p with
    | Some age ->
      let due = Sim_time.(now p - age + p.timeout) in
      let at = Sim_time.max due (Sim_time.( + ) p.last_partial_pack 1L) in
      Deadline.arm p.age_due ~at (fun () -> pack p)
    | None -> ()

let flush p =
  p.idle_copy <- None;
  let cap = Mempool.cap p.mempool in
  let batches = Mempool.take p.mempool ~target:(if cap > 0 then cap else max_int) in
  if batches <> [] then emit p Flush batches

(* guard = proposal_timeout / 8: it covers the aim's error (sign,
   multicast and verify between the pack and the leader's pool) and is
   the wait left at the leader (DESIGN.md §1, the proposal clock). *)
let clock_guard_fraction = 8L

let clock_pack p =
  if p.seam.may_pack ~idle:false then begin
    let batches = take_for_pack p ~target:p.alpha in
    if batches <> [] then begin
      emit p Clock batches;
      arm_age_deadline p
    end
  end

(* The vote comes about one one-way delay after the proposal, and our
   datablock needs another to reach the leader: the vote -> notarization
   rtt over-covers both, so a slow link aims earlier. *)
let voted p ~partial ~rtt =
  if timed p && Int64.compare p.proposal_timeout 0L > 0 then
    if not partial then Deadline.disarm p.clock_due
    else
      match rtt with
      | Some rtt when p.timer_packing ->
        let t = p.proposal_timeout in
        let delay = Int64.(sub (sub t (div t clock_guard_fraction)) rtt) in
        if Int64.compare delay 0L > 0 then begin
          Deadline.disarm p.clock_due;
          Deadline.arm p.clock_due ~at:Sim_time.(now p + delay) (fun () -> clock_pack p)
        end
      | Some _ | None -> ()

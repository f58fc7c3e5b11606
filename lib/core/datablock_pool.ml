type verdict =
  | Accepted
  | Duplicate
  | Executed
  | Equivocation of Datablock.t

type state =
  | Pending
  | Linked
  | Executed_in of int  (* the serial that executed it *)
  | Rival

type entry = { db : Datablock.t; mutable state : state }

module Int_set = Set.Make (Int)

(* One creator's executed-and-pruned counters: every counter <= [upto],
   plus the members of [beyond] ([beyond_size] of them, all > [upto]). *)
type creator_floor = {
  mutable upto : int;
  mutable beyond : Int_set.t;
  mutable beyond_size : int;
}

type floor = { creator : Net.Node_id.t; base : int; above : int list }

type t = {
  by_hash : entry Crypto.Hash.Table.t;
  by_slot : (int * int, Crypto.Hash.t) Hashtbl.t; (* (creator, counter) -> hash *)
  pending : Crypto.Hash.t Queue.t;                (* arrival order, compacted *)
  mutable pending_count : int;                    (* entries in state [Pending] *)
  mutable evidence : (Net.Node_id.t * Datablock.t * Datablock.t) list;
  floors : (Net.Node_id.t, creator_floor) Hashtbl.t;
}

let floor_window = 1024

let create () =
  { by_hash = Crypto.Hash.Table.create 256;
    by_slot = Hashtbl.create 256;
    pending = Queue.create ();
    pending_count = 0;
    evidence = [];
    floors = Hashtbl.create 16 }

(* Every state change goes through [set] (a new entry through
   [enqueue]), so [pending_count] counts the entries [take_pending] can
   still hand out and the queue holds each of them. An entry that
   leaves Pending stays queued until a take passes it, which on a
   replica that never takes is never: so once the queue outgrows twice
   the Pending count plus a slack, it keeps only the first slot of each
   Pending hash. [take_pending] hands out a Pending hash at its first
   slot, so the drop changes no take; a hash taken and later relinked
   queues at the back, as a relinked hash does anyway. *)
let compact t =
  let live = Queue.create () and seen = Crypto.Hash.Table.create (2 * t.pending_count) in
  Queue.iter
    (fun h ->
      match Crypto.Hash.Table.find_opt t.by_hash h with
      | Some { state = Pending; _ } when not (Crypto.Hash.Table.mem seen h) ->
        Crypto.Hash.Table.add seen h ();
        Queue.push h live
      | Some _ | None -> ())
    t.pending;
  Queue.clear t.pending;
  Queue.transfer live t.pending

let queue_slack = 64

let bound_queue t =
  if Queue.length t.pending > (2 * t.pending_count) + queue_slack then compact t

let enqueue t h =
  t.pending_count <- t.pending_count + 1;
  Queue.push h t.pending;
  bound_queue t

let set t h e state =
  (match e.state with Pending -> t.pending_count <- t.pending_count - 1 | _ -> ());
  e.state <- state;
  match state with Pending -> enqueue t h | _ -> bound_queue t

(* A proposal that links a rival, or a block that executes it, chose it
   for its slot (§4.3 remark): the variant this replica accepted there,
   the one [by_slot] names, becomes a rival too, so it is never offered
   or relinked. *)
let demote_owner t rival =
  let header = rival.db.Datablock.header in
  match Hashtbl.find_opt t.by_slot (header.creator, header.counter) with
  | Some h0 ->
    (match Crypto.Hash.Table.find_opt t.by_hash h0 with
     | Some ({ state = Pending | Linked; _ } as e) -> set t h0 e Rival
     | Some _ | None -> ())
  | None -> ()

let executed_slot t ~creator ~counter =
  match Hashtbl.find_opt t.floors creator with
  | Some f -> counter <= f.upto || Int_set.mem counter f.beyond
  | None -> false

let rec absorb f =
  match Int_set.min_elt_opt f.beyond with
  | Some c when c = f.upto + 1 ->
    f.beyond <- Int_set.remove c f.beyond;
    f.beyond_size <- f.beyond_size - 1;
    f.upto <- c;
    absorb f
  | Some _ | None -> ()

(* A counter leaves [beyond] only by joining the contiguous floor. When
   more than [floor_window] counters wait above a gap, the floor jumps
   past the oldest gap: its counters are refused from then on, except
   as requested fetch replies. *)
let record_executed t ~creator ~counter =
  let f =
    match Hashtbl.find_opt t.floors creator with
    | Some f -> f
    | None ->
      let f = { upto = 0; beyond = Int_set.empty; beyond_size = 0 } in
      Hashtbl.add t.floors creator f;
      f
  in
  if counter > f.upto && not (Int_set.mem counter f.beyond) then begin
    f.beyond <- Int_set.add counter f.beyond;
    f.beyond_size <- f.beyond_size + 1;
    absorb f;
    while f.beyond_size > floor_window do
      f.upto <- Int_set.min_elt f.beyond - 1;
      absorb f
    done
  end

let find t h =
  Option.map (fun e -> e.db) (Crypto.Hash.Table.find_opt t.by_hash h)

let mem t h = Crypto.Hash.Table.mem t.by_hash h

let add ?(requested = false) t db =
  let h = Datablock.hash db in
  let creator = db.Datablock.header.creator and counter = db.Datablock.header.counter in
  if mem t h then Duplicate
  else
    match Hashtbl.find_opt t.by_slot (creator, counter) with
    | Some h0 ->
      let first =
        match Crypto.Hash.Table.find_opt t.by_hash h0 with
        | Some e -> e.db
        | None -> db (* first copy pruned *)
      in
      t.evidence <- (creator, first, db) :: t.evidence;
      (* Stored as punishable evidence and so that a BFTblock linking it
         (the leader confirms whichever variant it received, §4.3 remark)
         can still be resolved, but never offered or relinked here. *)
      Crypto.Hash.Table.add t.by_hash h { db; state = Rival };
      Equivocation first
    | None when (not requested) && executed_slot t ~creator ~counter -> Executed
    | None ->
      Hashtbl.add t.by_slot (creator, counter) h;
      Crypto.Hash.Table.add t.by_hash h { db; state = Pending };
      enqueue t h;
      Accepted

let missing_links t links = List.filter (fun h -> not (mem t h)) links

let rec has_all_links t = function
  | [] -> true
  | h :: rest -> mem t h && has_all_links t rest

let pending t = t.pending_count
let queued t = Queue.length t.pending

let take_pending t ~max =
  let rec go acc n =
    if n = 0 then List.rev acc
    else
      match Queue.take_opt t.pending with
      | None -> List.rev acc
      | Some h ->
        (match Crypto.Hash.Table.find_opt t.by_hash h with
         | Some ({ state = Pending; _ } as e) ->
           set t h e Linked;
           go (e.db :: acc) (n - 1)
         | Some _ | None -> go acc n)
  in
  go [] max

let mark_linked t h =
  match Crypto.Hash.Table.find_opt t.by_hash h with
  | Some ({ state = Pending; _ } as e) -> set t h e Linked
  | Some ({ state = Rival; _ } as e) -> demote_owner t e
  | Some _ | None -> ()

let mark_executed t h ~sn =
  match Crypto.Hash.Table.find_opt t.by_hash h with
  | Some e ->
    (match e.state with Rival -> demote_owner t e | _ -> ());
    set t h e (Executed_in sn)
  | None -> ()

let relink_pending t ~keep_linked =
  Crypto.Hash.Table.iter
    (fun h e ->
      match e.state with
      | Linked when not (Crypto.Hash.Set.mem h keep_linked) -> set t h e Pending
      | Pending when Crypto.Hash.Set.mem h keep_linked -> set t h e Linked
      | Pending | Linked | Executed_in _ | Rival -> ())
    t.by_hash

let fold t ~init ~f =
  Crypto.Hash.Table.fold
    (fun _ e acc -> f acc e.db ~linked:(e.state <> Pending))
    t.by_hash init

let equivocations t = List.rev t.evidence
let size t = Crypto.Hash.Table.length t.by_hash

let executed t =
  Crypto.Hash.Table.fold
    (fun _ e n -> match e.state with Executed_in _ -> n + 1 | _ -> n)
    t.by_hash 0

let prune t ~lw =
  Crypto.Hash.Table.fold
    (fun h e acc -> match e.state with Executed_in sn when sn <= lw -> (h, e.db) :: acc | _ -> acc)
    t.by_hash []
  |> List.iter (fun (h, db) ->
         let creator = db.Datablock.header.creator and counter = db.Datablock.header.counter in
         Crypto.Hash.Table.remove t.by_hash h;
         Hashtbl.remove t.by_slot (creator, counter);
         record_executed t ~creator ~counter);
  (* No block can still need a rival of a floored slot; a fetch reply
     for it is admitted through [~requested]. *)
  Crypto.Hash.Table.filter_map_inplace
    (fun _ e ->
      let { Datablock.creator; counter; _ } = e.db.Datablock.header in
      if e.state = Rival && executed_slot t ~creator ~counter then None else Some e)
    t.by_hash

let floors t =
  Hashtbl.fold
    (fun creator f acc -> { creator; base = f.upto; above = Int_set.elements f.beyond } :: acc)
    t.floors []
  |> List.sort (fun a b -> compare a.creator b.creator)

let restore_floors t fs =
  List.iter
    (fun { creator; base; above } ->
      let beyond = Int_set.of_list above in
      Hashtbl.replace t.floors creator
        { upto = base; beyond; beyond_size = Int_set.cardinal beyond })
    fs

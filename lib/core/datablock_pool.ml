type verdict =
  | Accepted
  | Duplicate
  | Executed
  | Equivocation of Datablock.t

type entry = { db : Datablock.t; mutable linked : bool }

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
  pending : Crypto.Hash.t Queue.t;                (* arrival order, lazily cleaned *)
  mutable unlinked : int;                         (* entries with [linked = false] *)
  mutable evidence : (Net.Node_id.t * Datablock.t * Datablock.t) list;
  floors : (Net.Node_id.t, creator_floor) Hashtbl.t;
}

let floor_window = 1024

let create () =
  { by_hash = Crypto.Hash.Table.create 256;
    by_slot = Hashtbl.create 256;
    pending = Queue.create ();
    unlinked = 0;
    evidence = [];
    floors = Hashtbl.create 16 }

(* Every flip of an entry's [linked] goes through [link] or [unlink], so
   [unlinked] counts the entries [take_pending] can still hand out. *)
let link t e =
  e.linked <- true;
  t.unlinked <- t.unlinked - 1

let unlink t h e =
  e.linked <- false;
  t.unlinked <- t.unlinked + 1;
  Queue.push h t.pending

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
  let slot = (creator, counter) in
  match Hashtbl.find_opt t.by_slot slot with
  | Some h0 when Crypto.Hash.equal h0 h -> Duplicate
  | Some h0 ->
    let first =
      match Crypto.Hash.Table.find_opt t.by_hash h0 with
      | Some e -> e.db
      | None -> db (* first copy pruned *)
    in
    t.evidence <- (db.Datablock.header.creator, first, db) :: t.evidence;
    (* Store the conflicting variant too — as punishable evidence and so
       that a BFTblock linking it (the leader confirms whichever variant
       it received, §4.3 remark) can still be resolved — but never expose
       it to this replica's own proposal path. *)
    if not (Crypto.Hash.Table.mem t.by_hash h) then
      Crypto.Hash.Table.add t.by_hash h { db; linked = true };
    Equivocation first
  | None when (not requested) && executed_slot t ~creator ~counter -> Executed
  | None ->
    Hashtbl.add t.by_slot slot h;
    (match Crypto.Hash.Table.find_opt t.by_hash h with
     | Some e ->
       (* a stored equivocation variant whose rival was pruned: one
          entry per hash, so [take_pending] can reach every unlinked one *)
       if e.linked then unlink t h e
     | None ->
       let e = { db; linked = true } in
       Crypto.Hash.Table.add t.by_hash h e;
       unlink t h e);
    Accepted

let missing_links t links = List.filter (fun h -> not (mem t h)) links

let rec has_all_links t = function
  | [] -> true
  | h :: rest -> mem t h && has_all_links t rest

let rec drop_linked_head t =
  match Queue.peek_opt t.pending with
  | Some h ->
    (match Crypto.Hash.Table.find_opt t.by_hash h with
     | Some e when not e.linked -> ()
     | Some _ | None ->
       ignore (Queue.pop t.pending);
       drop_linked_head t)
  | None -> ()

let pending t = t.unlinked

let take_pending t ~max =
  let rec go acc n =
    if n = 0 then List.rev acc
    else begin
      drop_linked_head t;
      match Queue.pop t.pending with
      | exception Queue.Empty -> List.rev acc
      | h ->
        (match Crypto.Hash.Table.find_opt t.by_hash h with
         | Some e when not e.linked ->
           link t e;
           go (e.db :: acc) (n - 1)
         | Some _ | None -> go acc n)
    end
  in
  go [] max

let mark_linked t h =
  match Crypto.Hash.Table.find_opt t.by_hash h with
  | Some e when not e.linked -> link t e
  | Some _ | None -> ()

let relink_pending t ~keep_linked ~also_executed =
  Crypto.Hash.Table.iter
    (fun h e ->
      if e.linked && (not (Crypto.Hash.Set.mem h keep_linked)) && not (also_executed h) then
        unlink t h e)
    t.by_hash

let fold t ~init ~f =
  Crypto.Hash.Table.fold (fun _ e acc -> f acc e.db ~linked:e.linked) t.by_hash init

let equivocations t = List.rev t.evidence
let size t = Crypto.Hash.Table.length t.by_hash

let prune t ~keep =
  let victims = ref [] in
  Crypto.Hash.Table.iter
    (fun h e ->
      if not (keep e.db) then begin
        victims := (h, e.db) :: !victims;
        if not e.linked then t.unlinked <- t.unlinked - 1
      end)
    t.by_hash;
  List.iter
    (fun (h, db) ->
      let creator = db.Datablock.header.creator and counter = db.Datablock.header.counter in
      Crypto.Hash.Table.remove t.by_hash h;
      Hashtbl.remove t.by_slot (creator, counter);
      record_executed t ~creator ~counter)
    !victims

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

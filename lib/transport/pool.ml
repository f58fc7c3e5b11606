(* Size-classed buffer pool for the transport data plane.

   Two lifetimes draw from it. Each node's read scratch and gather buffer
   (64 KiB each) live as long as the node's [Conn]. A frame reader's
   partial-frame buffer lives only from the read that cut a frame to the
   read that completes it, so it turns over at frame rate; nothing is held
   per connection. Recycling both through a free list keeps the steady
   state free of major-heap churn and, with [debug], catches
   use-after-release and double-release bugs by poisoning.

   Classes are powers of two from [min_class] to [max_class]; a request
   above [max_class] falls back to a plain allocation that [release]
   recognizes (by its off-class size) and drops. Buffers are handed out
   at their class size, never trimmed — callers track their own fill. *)

let min_class = 4096
let max_class = 1 lsl 22 (* 4 MiB *)
let poison_byte = '\xDE'

type stats = {
  mutable acquires : int;
  mutable hits : int; (* acquires served from a free list *)
  mutable releases : int;
  mutable dropped : int; (* releases of off-class buffers, not pooled *)
  mutable held_bytes : int; (* bytes handed out and not yet released *)
}

type t = {
  classes : Bytes.t list ref array;
  debug : bool;
  stats : stats;
}

let class_count =
  let rec go i sz = if sz >= max_class then i + 1 else go (i + 1) (sz * 2) in
  go 0 min_class

let create ?(debug = false) () =
  { classes = Array.init class_count (fun _ -> ref []);
    debug;
    stats = { acquires = 0; hits = 0; releases = 0; dropped = 0; held_bytes = 0 } }

let stats t = t.stats

(* Smallest class index whose size is >= n, or None above max_class. *)
let class_of n =
  if n > max_class then None
  else begin
    let idx = ref 0 and sz = ref min_class in
    while !sz < n do
      incr idx;
      sz := !sz * 2
    done;
    Some !idx
  end

let class_size idx = min_class lsl idx

let acquire t n =
  t.stats.acquires <- t.stats.acquires + 1;
  let b =
    match class_of n with
    | None -> Bytes.create n
    | Some idx -> (
      let free = t.classes.(idx) in
      match !free with
      | [] -> Bytes.create (class_size idx)
      | b :: rest ->
        free := rest;
        t.stats.hits <- t.stats.hits + 1;
        b)
  in
  t.stats.held_bytes <- t.stats.held_bytes + Bytes.length b;
  b

let release t b =
  let len = Bytes.length b in
  match class_of len with
  | Some idx when class_size idx = len ->
    let free = t.classes.(idx) in
    if t.debug then begin
      (* Double-release detection: the exact buffer must not already sit
         in its free list. O(list) is fine — debug only. *)
      if List.exists (fun b' -> b' == b) !free then
        invalid_arg "Pool.release: double release";
      Bytes.fill b 0 len poison_byte
    end;
    t.stats.releases <- t.stats.releases + 1;
    t.stats.held_bytes <- t.stats.held_bytes - len;
    free := b :: !free
  | Some _ | None ->
    (* Off-class size: not one of ours (or an oversized fallback). *)
    t.stats.dropped <- t.stats.dropped + 1;
    t.stats.held_bytes <- t.stats.held_bytes - len


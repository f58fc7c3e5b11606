type job =
  | Datablock_check of {
      pks : Crypto.Signature.public_key array;
      db : Datablock.t;
    }
  | Aggregate_check of {
      setup : Crypto.Threshold.setup;
      agg : Crypto.Threshold.aggregate;
      msg : string;
    }
  | Share_check of {
      setup : Crypto.Threshold.setup;
      share : Crypto.Threshold.share;
      msg : string;
    }
  | All of job list

type dispatch = job -> (bool -> unit) -> unit

let run_leaf = function
  | Datablock_check { pks; db } -> Datablock.verify ~pks db
  | Aggregate_check { setup; agg; msg } -> Crypto.Threshold.verify setup agg msg
  | Share_check { setup; share; msg } -> Crypto.Threshold.verify_share setup share msg
  | All _ -> assert false

(* Flatten nested [All]s into submission order. *)
let rec leaves acc = function
  | All js -> List.fold_left leaves acc js
  | leaf -> leaf :: acc

let leaves_of job = List.rev (leaves [] job)

let run job =
  match job with
  | All _ ->
      (* every leaf runs — a failed check must not stop later leaves from
         warming their memos for the caller's inline re-verification *)
      List.fold_left (fun acc l -> run_leaf l && acc) true (leaves_of job)
  | leaf -> run_leaf leaf

let inline : dispatch = fun job k -> k (run job)

(* What a job costs, in SHA-256 compressions. A datablock check hashes
   one leaf per batch (a [Request.encode] fits one block), two
   compressions per Merkle inner node (batches - 1 of them) and two for
   the HMAC over the header (keyed pads precomputed); a share or
   aggregate check is one member or group commitment plus the mask. *)
let rec cost = function
  | Datablock_check { db; _ } -> 3 * List.length db.Datablock.batches
  | Aggregate_check _ | Share_check _ -> 2
  | All js -> List.fold_left (fun acc j -> acc + cost j) 0 js

(* Jobs cheaper than this run inline on the owner: shipping them costs
   more than they do. From the two micro rows that measure the sides
   (BENCH_micro.json; 2-vCPU x86-64 host with SHA-NI): a [verify/handoff]
   pool round trip takes 22173 ns, and a fresh [datablock/verify-7]
   (cost 21) 4077 ns, 194 ns per compression, so a round trip is worth
   22173 / 194 = ~114 compressions. A full datablock (alpha = 100
   batches, cost 300) still goes to the pool; the 5-7-batch datablocks
   of a 1000 req/s run and lone share or aggregate checks run inline. *)
let inline_below = 114

let pooled pool : dispatch =
 fun job k ->
  if cost job < inline_below then k (run job)
  else
    match leaves_of job with
    | [ l ] -> Exec.Pool.async pool (fun () -> run_leaf l) k
    | ls ->
        Exec.Pool.async_all pool
          (List.map (fun l () -> run_leaf l) ls)
          (fun oks -> k (List.for_all Fun.id oks))

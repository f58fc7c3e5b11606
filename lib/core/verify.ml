type job = Datablock_check of { pks : Crypto.Signature.public_key array; db : Datablock.t }

type dispatch = job -> (bool -> unit) -> unit

let run (Datablock_check { pks; db }) = Datablock.verify ~pks db

let inline : dispatch = fun job k -> k (run job)

(* What a job costs, in SHA-256 compressions. A datablock check hashes
   one leaf per batch (a [Request.encode] fits one block), two
   compressions per Merkle inner node (batches - 1 of them) and two for
   the HMAC over the header (keyed pads precomputed). *)
let cost (Datablock_check { db; _ }) = 3 * List.length db.Datablock.batches

(* Jobs cheaper than this run inline on the owner: shipping them costs
   more than they do. From the two micro rows that measure the sides
   (BENCH_micro.json; 2-vCPU x86-64 host with SHA-NI): a [verify/handoff]
   pool round trip takes 22173 ns, and a fresh [datablock/verify-7]
   (cost 21) 4077 ns, 194 ns per compression, so a round trip is worth
   22173 / 194 = ~114 compressions. A full datablock (alpha = 100
   batches, cost 300) still goes to the pool; the 5-7-batch datablocks
   of a 1000 req/s run run inline. *)
let inline_below = 114

let pooled pool : dispatch =
 fun job k ->
  if cost job < inline_below then k (run job)
  else Exec.Pool.async pool (fun () -> run job) k

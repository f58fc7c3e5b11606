type header = {
  creator : Net.Node_id.t;
  counter : int;
  digest : Crypto.Hash.t;
}

type verify_memo = Unverified | Valid | Invalid

type t = {
  header : header;
  batches : Workload.Request.t list;
  req_count : int;
  payload_bytes : int;
  signature : Crypto.Signature.t;
  created_at : Sim.Sim_time.t;
  (* memoized on first use, not at construction: the decode path
     ([Codec.decode_datablock] -> [of_wire]) is pure parsing, and a
     receiver that drops or dedups a datablock never pays for digests it
     did not need. [verify]/[hash] force and cache them, so each value
     still computes its Merkle digest at most once; the simulated CPU
     cost is charged separately via the cost model either way. *)
  mutable true_digest : Crypto.Hash.t option;
  wire_bytes : int;
  mutable hash_memo : Crypto.Hash.t option;
  mutable header_enc : string; (* "" = not yet encoded *)
  (* the signature + digest check is a pure function of the (immutable)
     datablock, and every replica holds the same key set, so the first
     receiver's verdict is memoized for the other n-2. Atomic because
     Exec.Pool verifies datablocks from several domains at once: the
     verdict is CAS-published so it can transition Unverified -> Valid or
     Unverified -> Invalid exactly once and never flip or tear. The other
     memo fields ([true_digest], [hash_memo], [header_enc]) stay plain
     mutable: racing writers compute identical immutable values, which the
     OCaml memory model publishes safely (no tearing), so any read sees
     either "absent" or the correct value. *)
  verify_memo : verify_memo Atomic.t;
}

let header_overhead_bytes = 48 (* creator + counter + digest *)

let digest_of_batches batches =
  Crypto.Merkle.root_with ~leaf:Workload.Request.hash_into batches

(* The bytes of [Printf.sprintf "dbhdr:%d:%d:%s"], built without Printf. *)
let header_encoding h =
  let digest = Crypto.Hash.raw h.digest in
  let w = Workload.Decimal.width in
  let b = Bytes.create (8 + w h.creator + w h.counter + String.length digest) in
  Bytes.blit_string "dbhdr:" 0 b 0 6;
  let pos = Workload.Decimal.blit h.creator b 6 in
  Bytes.set b pos ':';
  let pos = Workload.Decimal.blit h.counter b (pos + 1) in
  Bytes.set b pos ':';
  Bytes.blit_string digest 0 b (pos + 1) (String.length digest);
  Bytes.unsafe_to_string b

let of_wire ~creator ~counter ~digest ~created_at ~signature batches =
  (* Typed error, not an assert: this constructor sits behind the wire
     decode path, and a malformed frame must never be able to kill the
     process. [Codec.r_datablock] rejects empty batch lists before
     calling here, so over the wire this raise is unreachable; direct
     callers get a catchable [Invalid_argument]. *)
  if batches = [] then invalid_arg "Datablock.of_wire: empty batch list";
  let header = { creator; counter; digest } in
  { header;
    batches;
    req_count = List.fold_left (fun acc b -> acc + b.Workload.Request.count) 0 batches;
    payload_bytes = List.fold_left (fun acc b -> acc + Workload.Request.payload_bytes b) 0 batches;
    signature;
    created_at;
    true_digest = None;
    wire_bytes =
      header_overhead_bytes + Crypto.Signature.size_bytes
      + List.fold_left (fun acc b -> acc + Workload.Request.wire_bytes b) 0 batches;
    hash_memo = None;
    header_enc = "";
    verify_memo = Atomic.make Unverified }

let forced_header_enc t =
  if String.length t.header_enc = 0 then t.header_enc <- header_encoding t.header;
  t.header_enc

let forced_true_digest t =
  match t.true_digest with
  | Some d -> d
  | None ->
    let d = digest_of_batches t.batches in
    t.true_digest <- Some d;
    d

let make_with_digest ~sk ~creator ~counter ~now ~digest batches =
  let header = { creator; counter; digest } in
  of_wire ~creator ~counter ~digest ~created_at:now
    ~signature:(Crypto.Signature.sign sk (header_encoding header))
    batches

let create ~sk ~creator ~counter ~now batches =
  if batches = [] then invalid_arg "Datablock.create: empty batch list";
  make_with_digest ~sk ~creator ~counter ~now ~digest:(digest_of_batches batches) batches

let forge_with_bad_digest ~sk ~creator ~counter ~now batches =
  if batches = [] then invalid_arg "Datablock.forge_with_bad_digest: empty batch list";
  make_with_digest ~sk ~creator ~counter ~now
    ~digest:(Crypto.Hash.of_string "bogus digest") batches

let tamper t =
  let batches =
    match t.batches with
    | b :: rest ->
      Workload.Request.make ~id:(b.Workload.Request.id + 0x2000000) ~count:b.count
        ~size_each:b.size_each ~born:b.born ()
      :: rest
    | [] -> invalid_arg "Datablock.tamper: datablock has no batches"
  in
  of_wire ~creator:t.header.creator ~counter:t.header.counter ~digest:t.header.digest
    ~created_at:t.created_at ~signature:t.signature batches

let verify ~pks t =
  match Atomic.get t.verify_memo with
  | Valid -> true
  | Invalid -> false
  | Unverified ->
    let h = t.header in
    let ok =
      h.creator >= 0
      && h.creator < Array.length pks
      && Crypto.Hash.equal h.digest (forced_true_digest t)
      && Crypto.Signature.verify pks.(h.creator) t.signature (forced_header_enc t)
    in
    (* first verdict wins; a concurrent verifier computed the same one *)
    ignore
      (Atomic.compare_and_set t.verify_memo Unverified (if ok then Valid else Invalid));
    ok

let hash t =
  match t.hash_memo with
  | Some h -> h
  | None ->
    let h = Crypto.Hash.of_string (forced_header_enc t) in
    t.hash_memo <- Some h;
    h
let wire_size t = t.wire_bytes

let pp fmt t =
  Format.fprintf fmt "datablock(%a#%d, %d reqs, %a)" Net.Node_id.pp t.header.creator
    t.header.counter t.req_count Crypto.Hash.pp t.header.digest

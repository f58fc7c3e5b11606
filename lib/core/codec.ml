(* Wire format: little-endian fixed-width integers, u32-length-prefixed
   byte strings, u32-count-prefixed lists, one u8 tag per variant.

   Hot-path notes: the reader decodes fixed-width integers in place with
   [String.get_int32_le]/[String.get_int64_le] (no [String.sub] per
   field), and the writer uses [Buffer.add_int32_le]/[add_int64_le].
   Validation is explicit — [Encode_error]/[Decode_error] — rather than
   [assert]-based, so it survives [-noassert] and [guard] need not catch
   [Assert_failure]. *)

exception Encode_error of string
exception Decode_error

let max_u32 = 0xFFFFFFFF

module W = struct
  let create () = Buffer.create 256
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let u32 b v =
    if v < 0 || v > max_u32 then raise (Encode_error "u32 out of range");
    Buffer.add_int32_le b (Int32.of_int v)

  let i64 b (v : int64) = Buffer.add_int64_le b v

  let str b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let bool b v = u8 b (if v then 1 else 0)

  let list b f xs =
    u32 b (List.length xs);
    List.iter (f b) xs
end

module R = struct
  (* [limit] bounds the readable region so a decoder can run over a slice
     of a larger buffer (the transport's frame reader) without a
     [String.sub] of the payload first. *)
  type reader = { src : string; mutable pos : int; limit : int }

  let create src = { src; pos = 0; limit = String.length src }

  let create_sub src ~off ~len =
    if off < 0 || len < 0 || off + len > String.length src then raise Decode_error;
    { src; pos = off; limit = off + len }

  let take r n =
    if n < 0 || r.pos + n > r.limit then raise Decode_error;
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    s

  let u8 r =
    let p = r.pos in
    if p >= r.limit then raise Decode_error;
    r.pos <- p + 1;
    Char.code (String.unsafe_get r.src p)

  let u32 r =
    let p = r.pos in
    if p + 4 > r.limit then raise Decode_error;
    r.pos <- p + 4;
    Int32.to_int (String.get_int32_le r.src p) land max_u32

  let i64 r =
    let p = r.pos in
    if p + 8 > r.limit then raise Decode_error;
    r.pos <- p + 8;
    String.get_int64_le r.src p

  let str r =
    let n = u32 r in
    take r n

  let bool r = u8 r <> 0

  let list r f =
    let n = u32 r in
    List.init n (fun _ -> f r)

  let at_end r = r.pos = r.limit
end

let guard f s =
  let r = R.create s in
  match f r with
  | v -> if R.at_end r then Some v else None
  | exception Decode_error -> None

let guard_sub f s ~off ~len =
  match R.create_sub s ~off ~len with
  | r -> (
    match f r with
    | v -> if R.at_end r then Some v else None
    | exception Decode_error -> None)
  | exception Decode_error -> None

(* -- leaves ------------------------------------------------------------ *)

let w_hash b h = W.str b (Crypto.Hash.raw h)

let r_hash r =
  let s = R.str r in
  if String.length s <> Crypto.Hash.size_bytes then raise Decode_error;
  Crypto.Hash.of_raw s

let w_signature b s = W.str b (Crypto.Signature.to_raw s)

let r_signature r =
  let s = R.str r in
  if String.length s <> 32 then raise Decode_error;
  Crypto.Signature.of_raw s

let w_share b s =
  let index, value = Crypto.Threshold.share_raw s in
  W.u32 b index;
  W.u32 b value

let r_share r =
  let index = R.u32 r in
  let value = R.u32 r in
  Crypto.Threshold.share_of_raw ~index ~value

let w_aggregate b a = W.u32 b (Crypto.Threshold.aggregate_raw a)
let r_aggregate r = Crypto.Threshold.aggregate_of_raw (R.u32 r)

let w_batch b (x : Workload.Request.t) =
  W.u32 b x.Workload.Request.id;
  W.u32 b x.Workload.Request.count;
  W.u32 b x.Workload.Request.size_each;
  W.i64 b x.Workload.Request.born;
  W.bool b x.Workload.Request.resend

let r_batch r =
  let id = R.u32 r in
  let count = R.u32 r in
  let size_each = R.u32 r in
  let born = R.i64 r in
  let resend = R.bool r in
  (* [Request.make]'s precondition, checked explicitly so malformed input
     yields [None] rather than tripping an assert. *)
  if count < 1 then raise Decode_error;
  Workload.Request.make ~id ~count ~size_each ~born ~resend ()

let w_datablock b (db : Datablock.t) =
  W.u32 b db.Datablock.header.creator;
  W.u32 b db.Datablock.header.counter;
  w_hash b db.Datablock.header.digest;
  W.i64 b db.Datablock.created_at;
  w_signature b db.Datablock.signature;
  W.list b w_batch db.Datablock.batches

let r_datablock r =
  let creator = R.u32 r in
  let counter = R.u32 r in
  let digest = r_hash r in
  let created_at = R.i64 r in
  let signature = r_signature r in
  let batches = R.list r r_batch in
  if batches = [] then raise Decode_error;
  Datablock.of_wire ~creator ~counter ~digest ~created_at ~signature batches

let w_bftblock b (blk : Bftblock.t) =
  W.u32 b blk.Bftblock.view;
  W.u32 b blk.Bftblock.sn;
  W.bool b blk.Bftblock.dummy;
  W.list b w_hash blk.Bftblock.links

let r_bftblock r =
  let view = R.u32 r in
  let sn = R.u32 r in
  let dummy = R.bool r in
  let links = R.list r r_hash in
  if dummy then begin
    if links <> [] then raise Decode_error;
    Bftblock.dummy ~view ~sn
  end
  else Bftblock.create ~view ~sn ~links

let w_cert b (c : Msg.checkpoint_cert) =
  W.u32 b c.Msg.cp_sn;
  w_hash b c.Msg.cp_state;
  w_aggregate b c.Msg.cp_proof

let r_cert r =
  let cp_sn = R.u32 r in
  let cp_state = r_hash r in
  let cp_proof = r_aggregate r in
  Msg.{ cp_sn; cp_state; cp_proof }

let w_entry b (v, blk, proof) =
  W.u32 b v;
  w_bftblock b blk;
  w_aggregate b proof

let r_entry r =
  let v = R.u32 r in
  let blk = r_bftblock r in
  let proof = r_aggregate r in
  (v, blk, proof)

let w_view_change b (vc : Msg.view_change) =
  W.u32 b vc.Msg.vc_new_view;
  W.u32 b vc.Msg.vc_sender;
  (match vc.Msg.vc_checkpoint with
   | Some c ->
     W.bool b true;
     w_cert b c
   | None -> W.bool b false);
  W.list b w_entry vc.Msg.vc_entries;
  w_signature b vc.Msg.vc_signature

let r_view_change r =
  let vc_new_view = R.u32 r in
  let vc_sender = R.u32 r in
  let vc_checkpoint = if R.bool r then Some (r_cert r) else None in
  let vc_entries = R.list r r_entry in
  let vc_signature = r_signature r in
  Msg.{ vc_new_view; vc_sender; vc_checkpoint; vc_entries; vc_signature }

(* -- messages ----------------------------------------------------------- *)

let w_msg b (m : Msg.t) =
  match m with
  | Msg.Datablock_msg db ->
    W.u8 b 0;
    w_datablock b db
  | Msg.Propose { block; leader_share; justification } ->
    W.u8 b 1;
    w_bftblock b block;
    w_share b leader_share;
    (match justification with
     | Some (v, proof) ->
       W.bool b true;
       W.u32 b v;
       w_aggregate b proof
     | None -> W.bool b false)
  | Msg.Prepare_vote { view; sn; block_hash; share } ->
    W.u8 b 2;
    W.u32 b view;
    W.u32 b sn;
    w_hash b block_hash;
    w_share b share
  | Msg.Notarization { view; sn; block_hash; proof } ->
    W.u8 b 3;
    W.u32 b view;
    W.u32 b sn;
    w_hash b block_hash;
    w_aggregate b proof
  | Msg.Commit_vote { view; sn; notar_digest; share } ->
    W.u8 b 4;
    W.u32 b view;
    W.u32 b sn;
    w_hash b notar_digest;
    w_share b share
  | Msg.Confirmation { view; sn; notar_digest; proof } ->
    W.u8 b 5;
    W.u32 b view;
    W.u32 b sn;
    w_hash b notar_digest;
    w_aggregate b proof
  | Msg.Checkpoint_vote { cp_sn; cp_state; share } ->
    W.u8 b 6;
    W.u32 b cp_sn;
    w_hash b cp_state;
    w_share b share
  | Msg.Checkpoint_cert_msg cert ->
    W.u8 b 7;
    w_cert b cert
  | Msg.Timeout { view; sender; signature } ->
    W.u8 b 8;
    W.u32 b view;
    W.u32 b sender;
    w_signature b signature
  | Msg.View_change_msg vc ->
    W.u8 b 9;
    w_view_change b vc
  | Msg.New_view_msg nv ->
    W.u8 b 10;
    W.u32 b nv.Msg.nv_view;
    W.u32 b nv.Msg.nv_sender;
    W.list b w_view_change nv.Msg.nv_vcs;
    w_signature b nv.Msg.nv_signature
  | Msg.Fetch { hash } ->
    W.u8 b 11;
    w_hash b hash
  | Msg.Fetch_reply db ->
    W.u8 b 12;
    w_datablock b db

let r_msg r : Msg.t =
  match R.u8 r with
  | 0 -> Msg.Datablock_msg (r_datablock r)
  | 1 ->
    let block = r_bftblock r in
    let leader_share = r_share r in
    let justification =
      if R.bool r then begin
        let v = R.u32 r in
        let proof = r_aggregate r in
        Some (v, proof)
      end
      else None
    in
    Msg.Propose { block; leader_share; justification }
  | 2 ->
    let view = R.u32 r in
    let sn = R.u32 r in
    let block_hash = r_hash r in
    let share = r_share r in
    Msg.Prepare_vote { view; sn; block_hash; share }
  | 3 ->
    let view = R.u32 r in
    let sn = R.u32 r in
    let block_hash = r_hash r in
    let proof = r_aggregate r in
    Msg.Notarization { view; sn; block_hash; proof }
  | 4 ->
    let view = R.u32 r in
    let sn = R.u32 r in
    let notar_digest = r_hash r in
    let share = r_share r in
    Msg.Commit_vote { view; sn; notar_digest; share }
  | 5 ->
    let view = R.u32 r in
    let sn = R.u32 r in
    let notar_digest = r_hash r in
    let proof = r_aggregate r in
    Msg.Confirmation { view; sn; notar_digest; proof }
  | 6 ->
    let cp_sn = R.u32 r in
    let cp_state = r_hash r in
    let share = r_share r in
    Msg.Checkpoint_vote { cp_sn; cp_state; share }
  | 7 -> Msg.Checkpoint_cert_msg (r_cert r)
  | 8 ->
    let view = R.u32 r in
    let sender = R.u32 r in
    let signature = r_signature r in
    Msg.Timeout { view; sender; signature }
  | 9 -> Msg.View_change_msg (r_view_change r)
  | 10 ->
    let nv_view = R.u32 r in
    let nv_sender = R.u32 r in
    let nv_vcs = R.list r r_view_change in
    let nv_signature = r_signature r in
    Msg.New_view_msg Msg.{ nv_view; nv_sender; nv_vcs; nv_signature }
  | 11 -> Msg.Fetch { hash = r_hash r }
  | 12 -> Msg.Fetch_reply (r_datablock r)
  | _ -> raise Decode_error

(* -- durable-store records and snapshots --------------------------------- *)

let w_option f b = function
  | None -> W.bool b false
  | Some v ->
    W.bool b true;
    f b v

let r_option f r = if R.bool r then Some (f r) else None

let w_record b (x : Store.record) =
  match x with
  | Store.Logged_msg m ->
    W.u8 b 0;
    w_msg b m
  | Store.Confirmed_block blk ->
    W.u8 b 1;
    w_bftblock b blk
  | Store.Entered_view v ->
    W.u8 b 2;
    W.u32 b v
  | Store.Db_counter c ->
    W.u8 b 3;
    W.u32 b c

let r_record r : Store.record =
  match R.u8 r with
  | 0 -> Store.Logged_msg (r_msg r)
  | 1 -> Store.Confirmed_block (r_bftblock r)
  | 2 -> Store.Entered_view (R.u32 r)
  | 3 -> Store.Db_counter (R.u32 r)
  | _ -> raise Decode_error

let w_inst_snap b (i : Store.inst_snap) =
  W.u32 b i.Store.s_sn;
  W.u32 b i.Store.s_iview;
  w_option w_bftblock b i.Store.s_block;
  W.bool b i.Store.s_voted_prepare;
  w_option w_hash b i.Store.s_voted_hash;
  W.bool b i.Store.s_voted_commit;
  W.u32 b i.Store.s_notarized_view;
  w_option w_aggregate b i.Store.s_notarization

let r_inst_snap r : Store.inst_snap =
  let s_sn = R.u32 r in
  let s_iview = R.u32 r in
  let s_block = r_option r_bftblock r in
  let s_voted_prepare = R.bool r in
  let s_voted_hash = r_option r_hash r in
  let s_voted_commit = R.bool r in
  let s_notarized_view = R.u32 r in
  let s_notarization = r_option r_aggregate r in
  Store.
    { s_sn;
      s_iview;
      s_block;
      s_voted_prepare;
      s_voted_hash;
      s_voted_commit;
      s_notarized_view;
      s_notarization }

let w_floor b (f : Datablock_pool.floor) =
  W.u32 b f.Datablock_pool.creator;
  W.u32 b f.Datablock_pool.base;
  W.list b W.u32 f.Datablock_pool.above

let r_floor r : Datablock_pool.floor =
  let creator = R.u32 r in
  let base = R.u32 r in
  let above = R.list r R.u32 in
  { Datablock_pool.creator; base; above }

let w_snapshot b (s : Store.snapshot) =
  W.u32 b s.Store.snap_view;
  W.u32 b s.Store.snap_lw;
  W.u32 b s.Store.snap_next_sn;
  W.u32 b s.Store.snap_db_counter;
  w_hash b s.Store.snap_state_hash;
  W.u32 b s.Store.snap_executed_up_to;
  w_option w_cert b s.Store.snap_checkpoint;
  W.list b w_bftblock s.Store.snap_blocks;
  W.list b w_floor s.Store.snap_executed_floors;
  W.list b w_inst_snap s.Store.snap_instances;
  W.list b
    (fun b (db, linked) ->
      w_datablock b db;
      W.bool b linked)
    s.Store.snap_datablocks

let r_snapshot r : Store.snapshot =
  let snap_view = R.u32 r in
  let snap_lw = R.u32 r in
  let snap_next_sn = R.u32 r in
  let snap_db_counter = R.u32 r in
  let snap_state_hash = r_hash r in
  let snap_executed_up_to = R.u32 r in
  let snap_checkpoint = r_option r_cert r in
  let snap_blocks = R.list r r_bftblock in
  let snap_executed_floors = R.list r r_floor in
  let snap_instances = R.list r r_inst_snap in
  let snap_datablocks =
    R.list r (fun r ->
        let db = r_datablock r in
        let linked = R.bool r in
        (db, linked))
  in
  Store.
    { snap_view;
      snap_lw;
      snap_next_sn;
      snap_db_counter;
      snap_state_hash;
      snap_executed_up_to;
      snap_checkpoint;
      snap_blocks;
      snap_executed_floors;
      snap_instances;
      snap_datablocks }

(* -- public API ---------------------------------------------------------- *)

let run_encoder f v =
  let b = W.create () in
  f b v;
  Buffer.contents b

let encode_batch = run_encoder w_batch
let decode_batch = guard r_batch
let encode_datablock = run_encoder w_datablock
let decode_datablock = guard r_datablock
let encode_bftblock = run_encoder w_bftblock
let decode_bftblock = guard r_bftblock
let encode_msg = run_encoder w_msg
let decode_msg = guard r_msg
let decode_msg_sub s ~off ~len = guard_sub r_msg s ~off ~len
let encode_record = run_encoder w_record
let decode_record = guard r_record
let encode_snapshot = run_encoder w_snapshot
let decode_snapshot = guard r_snapshot

(* -- structural equality -------------------------------------------------- *)

let batch_equal (a : Workload.Request.t) (b : Workload.Request.t) =
  a.Workload.Request.id = b.Workload.Request.id
  && a.Workload.Request.count = b.Workload.Request.count
  && a.Workload.Request.size_each = b.Workload.Request.size_each
  && Int64.equal a.Workload.Request.born b.Workload.Request.born
  && a.Workload.Request.resend = b.Workload.Request.resend

let datablock_equal (a : Datablock.t) (b : Datablock.t) =
  a.Datablock.header.creator = b.Datablock.header.creator
  && a.Datablock.header.counter = b.Datablock.header.counter
  && Crypto.Hash.equal a.Datablock.header.digest b.Datablock.header.digest
  && Int64.equal a.Datablock.created_at b.Datablock.created_at
  && Crypto.Signature.equal a.Datablock.signature b.Datablock.signature
  && List.length a.Datablock.batches = List.length b.Datablock.batches
  && List.for_all2 batch_equal a.Datablock.batches b.Datablock.batches

let cert_equal (a : Msg.checkpoint_cert) (b : Msg.checkpoint_cert) =
  a.Msg.cp_sn = b.Msg.cp_sn
  && Crypto.Hash.equal a.Msg.cp_state b.Msg.cp_state
  && Crypto.Threshold.aggregate_equal a.Msg.cp_proof b.Msg.cp_proof

let entry_equal (v1, b1, p1) (v2, b2, p2) =
  v1 = v2
  && b1.Bftblock.view = b2.Bftblock.view
  && Bftblock.equal_content b1 b2
  && Crypto.Threshold.aggregate_equal p1 p2

let view_change_equal (a : Msg.view_change) (b : Msg.view_change) =
  a.Msg.vc_new_view = b.Msg.vc_new_view
  && a.Msg.vc_sender = b.Msg.vc_sender
  && Option.equal cert_equal a.Msg.vc_checkpoint b.Msg.vc_checkpoint
  && List.length a.Msg.vc_entries = List.length b.Msg.vc_entries
  && List.for_all2 entry_equal a.Msg.vc_entries b.Msg.vc_entries
  && Crypto.Signature.equal a.Msg.vc_signature b.Msg.vc_signature

let msg_equal (a : Msg.t) (b : Msg.t) =
  match (a, b) with
  | Msg.Datablock_msg x, Msg.Datablock_msg y | Msg.Fetch_reply x, Msg.Fetch_reply y ->
    datablock_equal x y
  | Msg.Propose x, Msg.Propose y ->
    x.block.Bftblock.view = y.block.Bftblock.view
    && Bftblock.equal_content x.block y.block
    && Crypto.Threshold.share_equal x.leader_share y.leader_share
    && Option.equal
         (fun (v1, p1) (v2, p2) -> v1 = v2 && Crypto.Threshold.aggregate_equal p1 p2)
         x.justification y.justification
  | Msg.Prepare_vote x, Msg.Prepare_vote y ->
    x.view = y.view && x.sn = y.sn
    && Crypto.Hash.equal x.block_hash y.block_hash
    && Crypto.Threshold.share_equal x.share y.share
  | Msg.Notarization x, Msg.Notarization y ->
    x.view = y.view && x.sn = y.sn
    && Crypto.Hash.equal x.block_hash y.block_hash
    && Crypto.Threshold.aggregate_equal x.proof y.proof
  | Msg.Commit_vote x, Msg.Commit_vote y ->
    x.view = y.view && x.sn = y.sn
    && Crypto.Hash.equal x.notar_digest y.notar_digest
    && Crypto.Threshold.share_equal x.share y.share
  | Msg.Confirmation x, Msg.Confirmation y ->
    x.view = y.view && x.sn = y.sn
    && Crypto.Hash.equal x.notar_digest y.notar_digest
    && Crypto.Threshold.aggregate_equal x.proof y.proof
  | Msg.Checkpoint_vote x, Msg.Checkpoint_vote y ->
    x.cp_sn = y.cp_sn
    && Crypto.Hash.equal x.cp_state y.cp_state
    && Crypto.Threshold.share_equal x.share y.share
  | Msg.Checkpoint_cert_msg x, Msg.Checkpoint_cert_msg y -> cert_equal x y
  | Msg.Timeout x, Msg.Timeout y ->
    x.view = y.view && x.sender = y.sender && Crypto.Signature.equal x.signature y.signature
  | Msg.View_change_msg x, Msg.View_change_msg y -> view_change_equal x y
  | Msg.New_view_msg x, Msg.New_view_msg y ->
    x.Msg.nv_view = y.Msg.nv_view
    && x.Msg.nv_sender = y.Msg.nv_sender
    && List.length x.Msg.nv_vcs = List.length y.Msg.nv_vcs
    && List.for_all2 view_change_equal x.Msg.nv_vcs y.Msg.nv_vcs
    && Crypto.Signature.equal x.Msg.nv_signature y.Msg.nv_signature
  | Msg.Fetch x, Msg.Fetch y -> Crypto.Hash.equal x.hash y.hash
  | ( ( Msg.Datablock_msg _ | Msg.Propose _ | Msg.Prepare_vote _ | Msg.Notarization _
      | Msg.Commit_vote _ | Msg.Confirmation _ | Msg.Checkpoint_vote _
      | Msg.Checkpoint_cert_msg _ | Msg.Timeout _ | Msg.View_change_msg _ | Msg.New_view_msg _
      | Msg.Fetch _ | Msg.Fetch_reply _ ),
      _ ) ->
    false

type checkpoint_cert = {
  cp_sn : int;
  cp_state : Crypto.Hash.t;
  cp_proof : Crypto.Threshold.aggregate;
}

type view_change = {
  vc_new_view : int;
  vc_sender : Net.Node_id.t;
  vc_checkpoint : checkpoint_cert option;
  vc_entries : (int * Bftblock.t * Crypto.Threshold.aggregate) list;
  vc_signature : Crypto.Signature.t;
}

type new_view = {
  nv_view : int;
  nv_sender : Net.Node_id.t;
  nv_vcs : view_change list;
  nv_signature : Crypto.Signature.t;
}

type t =
  | Datablock_msg of Datablock.t
  | Propose of {
      block : Bftblock.t;
      leader_share : Crypto.Threshold.share;
      justification : (int * Crypto.Threshold.aggregate) option;
    }
  | Prepare_vote of {
      view : int;
      sn : int;
      block_hash : Crypto.Hash.t;
      share : Crypto.Threshold.share;
    }
  | Notarization of {
      view : int;
      sn : int;
      block_hash : Crypto.Hash.t;
      proof : Crypto.Threshold.aggregate;
    }
  | Commit_vote of {
      view : int;
      sn : int;
      notar_digest : Crypto.Hash.t;
      share : Crypto.Threshold.share;
    }
  | Confirmation of {
      view : int;
      sn : int;
      notar_digest : Crypto.Hash.t;
      proof : Crypto.Threshold.aggregate;
    }
  | Checkpoint_vote of { cp_sn : int; cp_state : Crypto.Hash.t; share : Crypto.Threshold.share }
  | Checkpoint_cert_msg of checkpoint_cert
  | Timeout of { view : int; sender : Net.Node_id.t; signature : Crypto.Signature.t }
  | View_change_msg of view_change
  | New_view_msg of new_view
  | Fetch of { hash : Crypto.Hash.t }
  | Fetch_reply of Datablock.t

(* -- Signing payloads ----------------------------------------------------

   Hot path: a payload is built for every vote signed or verified, so the
   per-round builders write a one-byte domain tag, a little-endian 64-bit
   integer and the raw 32-byte digest into one preallocated [Bytes] — a
   single allocation, no [Printf] machinery. Tags keep the payload kinds
   mutually injective (fixed layout per tag; length-prefixed lists in the
   variable-size view-change/new-view payloads). *)

let[@inline] tagged_int_hash tag v h =
  let b = Bytes.create 41 in
  Bytes.unsafe_set b 0 tag;
  Bytes.set_int64_le b 1 (Int64.of_int v);
  Bytes.blit_string (Crypto.Hash.raw h) 0 b 9 32;
  Bytes.unsafe_to_string b

let prepare_payload ~view ~block_hash = tagged_int_hash 'P' view block_hash

let notar_digest proof = Crypto.Hash.of_raw (Crypto.Threshold.encode_digest proof)

let commit_payload ~view ~notar_digest = tagged_int_hash 'C' view notar_digest
let checkpoint_payload ~cp_sn ~cp_state = tagged_int_hash 'K' cp_sn cp_state

let timeout_payload ~view =
  let b = Bytes.create 9 in
  Bytes.unsafe_set b 0 'T';
  Bytes.set_int64_le b 1 (Int64.of_int view);
  Bytes.unsafe_to_string b

let add_int b v = Buffer.add_int64_le b (Int64.of_int v)
let add_hash b h = Buffer.add_string b (Crypto.Hash.raw h)

let add_view_change b vc =
  Buffer.add_char b 'V';
  add_int b vc.vc_new_view;
  add_int b vc.vc_sender;
  (match vc.vc_checkpoint with
   | None -> Buffer.add_char b '\000'
   | Some c ->
     Buffer.add_char b '\001';
     add_int b c.cp_sn;
     add_hash b c.cp_state);
  add_int b (List.length vc.vc_entries);
  List.iter
    (fun (v, blk, proof) ->
      add_int b v;
      add_hash b (Bftblock.hash blk);
      add_int b (Crypto.Threshold.aggregate_raw proof))
    vc.vc_entries

let view_change_payload vc =
  let b = Buffer.create 128 in
  add_view_change b vc;
  Buffer.contents b

let new_view_payload nv =
  let b = Buffer.create 256 in
  Buffer.add_char b 'N';
  add_int b nv.nv_view;
  add_int b nv.nv_sender;
  add_int b (List.length nv.nv_vcs);
  List.iter (add_view_change b) nv.nv_vcs;
  Buffer.contents b

(* -- Network metadata ---------------------------------------------------- *)

let header_bytes = 24 (* type tag, view, serial *)
let share_bytes = Crypto.Threshold.share_size_bytes
let agg_bytes = Crypto.Threshold.aggregate_size_bytes
let hash_bytes = Crypto.Hash.size_bytes
let sig_bytes = Crypto.Signature.size_bytes
let cert_bytes = 8 + hash_bytes + agg_bytes

let view_change_size vc =
  header_bytes + sig_bytes
  + (match vc.vc_checkpoint with Some _ -> cert_bytes | None -> 1)
  + List.fold_left
      (fun acc (_, b, _) -> acc + 8 + Bftblock.wire_size b + agg_bytes)
      0 vc.vc_entries

let wire_size = function
  | Datablock_msg db | Fetch_reply db -> Datablock.wire_size db
  | Propose { block; justification; _ } ->
    header_bytes + Bftblock.wire_size block + share_bytes
    + (match justification with Some _ -> 8 + agg_bytes | None -> 1)
  | Prepare_vote _ | Commit_vote _ -> header_bytes + hash_bytes + share_bytes
  | Notarization _ | Confirmation _ -> header_bytes + hash_bytes + agg_bytes
  | Checkpoint_vote _ -> header_bytes + hash_bytes + share_bytes
  | Checkpoint_cert_msg _ -> header_bytes + cert_bytes
  | Timeout _ -> header_bytes + sig_bytes
  | View_change_msg vc -> view_change_size vc
  | New_view_msg nv ->
    header_bytes + sig_bytes + List.fold_left (fun acc vc -> acc + view_change_size vc) 0 nv.nv_vcs
  | Fetch _ -> header_bytes + hash_bytes

type kind =
  | K_datablock
  | K_propose
  | K_prepare_vote
  | K_notarization
  | K_commit_vote
  | K_confirmation
  | K_checkpoint_vote
  | K_checkpoint_cert
  | K_timeout
  | K_view_change
  | K_new_view
  | K_fetch
  | K_fetch_reply

let kind = function
  | Datablock_msg _ -> K_datablock
  | Propose _ -> K_propose
  | Prepare_vote _ -> K_prepare_vote
  | Notarization _ -> K_notarization
  | Commit_vote _ -> K_commit_vote
  | Confirmation _ -> K_confirmation
  | Checkpoint_vote _ -> K_checkpoint_vote
  | Checkpoint_cert_msg _ -> K_checkpoint_cert
  | Timeout _ -> K_timeout
  | View_change_msg _ -> K_view_change
  | New_view_msg _ -> K_new_view
  | Fetch _ -> K_fetch
  | Fetch_reply _ -> K_fetch_reply

let kind_name = function
  | K_datablock -> "datablock"
  | K_propose -> "propose"
  | K_prepare_vote -> "prepare-vote"
  | K_notarization -> "notarization"
  | K_commit_vote -> "commit-vote"
  | K_confirmation -> "confirmation"
  | K_checkpoint_vote -> "checkpoint-vote"
  | K_checkpoint_cert -> "checkpoint-cert"
  | K_timeout -> "timeout"
  | K_view_change -> "view-change"
  | K_new_view -> "new-view"
  | K_fetch -> "fetch"
  | K_fetch_reply -> "fetch-reply"

let all_kinds =
  [ K_datablock; K_propose; K_prepare_vote; K_notarization; K_commit_vote;
    K_confirmation; K_checkpoint_vote; K_checkpoint_cert; K_timeout;
    K_view_change; K_new_view; K_fetch; K_fetch_reply ]

let num_kinds = List.length all_kinds

(* Dense index into per-kind counter arrays (transport drop accounting);
   follows the [all_kinds] order. *)
let kind_index = function
  | K_datablock -> 0
  | K_propose -> 1
  | K_prepare_vote -> 2
  | K_notarization -> 3
  | K_commit_vote -> 4
  | K_confirmation -> 5
  | K_checkpoint_vote -> 6
  | K_checkpoint_cert -> 7
  | K_timeout -> 8
  | K_view_change -> 9
  | K_new_view -> 10
  | K_fetch -> 11
  | K_fetch_reply -> 12

(* Channel class by kind alone: the transport's kind-aware drop policy
   classifies already-encoded frames with this. *)
let kind_priority = function
  | K_datablock | K_fetch_reply -> Net.Nic.Low
  | K_propose | K_prepare_vote | K_notarization | K_commit_vote | K_confirmation
  | K_checkpoint_vote | K_checkpoint_cert | K_timeout | K_view_change | K_new_view
  | K_fetch ->
    Net.Nic.High

let category = function
  | Datablock_msg _ | Fetch_reply _ -> "datablock"
  | Propose _ -> "proposal"
  | Prepare_vote _ | Commit_vote _ | Checkpoint_vote _ -> "vote"
  | Notarization _ | Confirmation _ | Checkpoint_cert_msg _ -> "proof"
  | Timeout _ | View_change_msg _ | New_view_msg _ -> "viewchange"
  | Fetch _ -> "fetch"

let priority m = kind_priority (kind m)

let meta = Net.Network.{ size = wire_size; category; priority }

let pp fmt = function
  | Datablock_msg db -> Format.fprintf fmt "datablock %a" Datablock.pp db
  | Propose { block; _ } -> Format.fprintf fmt "propose %a" Bftblock.pp block
  | Prepare_vote { view; sn; _ } -> Format.fprintf fmt "prepare-vote v%d sn%d" view sn
  | Notarization { view; sn; _ } -> Format.fprintf fmt "notarization v%d sn%d" view sn
  | Commit_vote { view; sn; _ } -> Format.fprintf fmt "commit-vote v%d sn%d" view sn
  | Confirmation { view; sn; _ } -> Format.fprintf fmt "confirmation v%d sn%d" view sn
  | Checkpoint_vote { cp_sn; _ } -> Format.fprintf fmt "checkpoint-vote sn%d" cp_sn
  | Checkpoint_cert_msg { cp_sn; _ } -> Format.fprintf fmt "checkpoint-cert sn%d" cp_sn
  | Timeout { view; sender; _ } ->
    Format.fprintf fmt "timeout v%d from %a" view Net.Node_id.pp sender
  | View_change_msg vc ->
    Format.fprintf fmt "view-change to v%d from %a (%d entries)" vc.vc_new_view Net.Node_id.pp
      vc.vc_sender (List.length vc.vc_entries)
  | New_view_msg nv -> Format.fprintf fmt "new-view v%d (%d vcs)" nv.nv_view (List.length nv.nv_vcs)
  | Fetch { hash } -> Format.fprintf fmt "fetch %a" Crypto.Hash.pp hash
  | Fetch_reply db -> Format.fprintf fmt "fetch-reply %a" Datablock.pp db

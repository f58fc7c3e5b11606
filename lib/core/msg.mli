(** Leopard's wire messages, with sizes, categories and channel classes.

    The two-channel design of §6.1 is encoded in {!priority}: BFTblock
    agreement traffic travels on channel ① ([High]) and preempts queued
    datablocks on channel ② ([Low]), so agreement progress survives
    datablock congestion.

    Signing payload builders bind votes to (view, serial, content): the
    first voting round signs the BFTblock's content hash under the
    current view; the second round signs the digest of the notarization
    proof σ¹ (Algorithm 2, lines 18 and 29). *)

type checkpoint_cert = {
  cp_sn : int;
  cp_state : Crypto.Hash.t;       (** H(st): execution state digest *)
  cp_proof : Crypto.Threshold.aggregate;
}

type view_change = {
  vc_new_view : int;
  vc_sender : Net.Node_id.t;
  vc_checkpoint : checkpoint_cert option;  (** lc: latest stable checkpoint *)
  vc_entries : (int * Bftblock.t * Crypto.Threshold.aggregate) list;
      (** notarized BFTblocks above the checkpoint, each with the view
          in which it was notarized and its notarization proof *)
  vc_signature : Crypto.Signature.t;
}

type new_view = {
  nv_view : int;
  nv_sender : Net.Node_id.t;
  nv_vcs : view_change list;      (** V: 2f + 1 view-change messages *)
  nv_signature : Crypto.Signature.t;
}

type t =
  | Datablock_msg of Datablock.t
  | Propose of {
      block : Bftblock.t;
      leader_share : Crypto.Threshold.share;
      justification : (int * Crypto.Threshold.aggregate) option;
          (** on redo after a view change: (old view, notarization) *)
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

(** {2 Signing payloads} *)

val prepare_payload : view:int -> block_hash:Crypto.Hash.t -> string
(** First-round vote message: binds the view and the block content. *)

val notar_digest : Crypto.Threshold.aggregate -> Crypto.Hash.t
(** H(σ¹). *)

val commit_payload : view:int -> notar_digest:Crypto.Hash.t -> string
(** Second-round vote message. *)

val checkpoint_payload : cp_sn:int -> cp_state:Crypto.Hash.t -> string
val timeout_payload : view:int -> string
val view_change_payload : view_change -> string
val new_view_payload : new_view -> string

(** {2 Message kinds}

    A first-class enumeration of the constructors, for code that filters
    messages without inspecting payloads (the fault injector's
    drop/delay/duplicate rules select by kind). *)

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

val kind : t -> kind

val kind_name : kind -> string
(** Stable lowercase name (["prepare-vote"], ["new-view"], …), used in
    traces and the chaos CLI. *)

val all_kinds : kind list

val num_kinds : int
(** [List.length all_kinds]. *)

val kind_index : kind -> int
(** Dense index in [0, num_kinds) following the {!all_kinds} order, for
    per-kind counter arrays. *)

val kind_priority : kind -> Net.Nic.priority
(** Channel class by kind alone: [Low] for bulk data
    ([K_datablock], [K_fetch_reply]), [High] for everything
    consensus-critical. *)

(** {2 Network metadata} *)

val wire_size : t -> int
val category : t -> string
val priority : t -> Net.Nic.priority
(** [priority m] is [kind_priority (kind m)]. *)

val meta : t Net.Network.meta

val pp : Format.formatter -> t -> unit
(** One-line tag, for traces. *)

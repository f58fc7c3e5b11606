(* The durable-state seam. A [sink] is the replica's view of stable
   storage: a synchronous vote/certificate log plus checkpoint-time
   snapshots. Three implementations exist — [null] (no persistence, the
   sim default), [mem] (a durable in-memory store for restart scenarios
   on the sim plane) and the file-backed WAL in [Store.Store_file]
   (threaded in through [Platform], like the [Verify] seam, so this
   module stays free of I/O). *)

type record =
  | Logged_msg of Msg.t
  | Confirmed_block of Bftblock.t
  | Entered_view of int
  | Db_counter of int

type inst_snap = {
  s_sn : int;
  s_iview : int;
  s_block : Bftblock.t option;
  s_voted_prepare : bool;
  s_voted_hash : Crypto.Hash.t option;
  s_voted_commit : bool;
  s_notarized_view : int;
  s_notarization : Crypto.Threshold.aggregate option;
}

type snapshot = {
  snap_view : int;
  snap_lw : int;
  snap_next_sn : int;
  snap_db_counter : int;
  snap_state_hash : Crypto.Hash.t;
  snap_executed_up_to : int;
  snap_checkpoint : Msg.checkpoint_cert option;
  snap_blocks : Bftblock.t list;
  snap_executed_floors : Datablock_pool.floor list;
  snap_instances : inst_snap list;
  snap_datablocks : (Datablock.t * bool) list;
}

type sink = {
  enabled : bool;
  log : record -> unit;
  save : snapshot -> unit;
  load : unit -> snapshot option * record list;
  sync : unit -> unit;
}

let null =
  { enabled = false;
    log = (fun (_ : record) -> ());
    save = (fun (_ : snapshot) -> ());
    load = (fun () -> (None, []));
    sync = (fun () -> ()) }

let mem () =
  (* Newest-first accumulation; [save] truncates the log exactly as the
     file store truncates segments below a snapshot. Everything logged is
     considered flushed (simulated stable storage has no write-back
     cache); [with_torn_tail] models the un-synced tail instead. *)
  let records : record list ref = ref [] in
  let snap : snapshot option ref = ref None in
  { enabled = true;
    log = (fun r -> records := r :: !records);
    save =
      (fun s ->
        snap := Some s;
        records := []);
    load = (fun () -> (!snap, List.rev !records));
    sync = (fun () -> ()) }

let with_torn_tail ~drop sink =
  { sink with
    load =
      (fun () ->
        let snap, records = sink.load () in
        let keep = max 0 (List.length records - drop) in
        (snap, List.filteri (fun i _ -> i < keep) records)) }

type handle = int
type tick_handle = int

type t = {
  t0 : float;                              (* wall time at [create] *)
  mutable clock_ns : int;                  (* monotone-clamped ns since t0 *)
  timers : (unit -> unit) Sim.Heap.t;
  mutable next_seq : int;
  cancelled : (int, unit) Hashtbl.t;
  readers : (Unix.file_descr, unit -> unit) Hashtbl.t;
  writers : (Unix.file_descr, unit -> unit) Hashtbl.t;
  poller : Poller.t;
  (* End-of-phase hooks (see [on_tick]): run after timers fire and after
     fd dispatch, always before the loop can block in the poller. Keyed
     so an owner tearing itself down can deregister ([remove_tick]) and
     stop being kept alive by the loop. *)
  mutable ticks : (tick_handle * (unit -> unit)) list;
  mutable next_tick : tick_handle;
  mutable stopped : bool;
}

let create_on poller =
  (* A peer closing mid-write must surface as EPIPE on the write (handled
     per-connection), not as a process-killing signal. *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  {
    t0 = Unix.gettimeofday ();
    clock_ns = 0;
    timers = Sim.Heap.create ();
    next_seq = 0;
    cancelled = Hashtbl.create 16;
    readers = Hashtbl.create 16;
    writers = Hashtbl.create 16;
    poller;
    ticks = [];
    next_tick = 0;
    stopped = false;
  }

let create () = create_on (Poller.create ())
let create_select () = create_on (Poller.create_select ())
let uses_epoll t = Poller.is_epoll t.poller

let refresh_clock t =
  let raw = int_of_float ((Unix.gettimeofday () -. t.t0) *. 1e9) in
  if raw > t.clock_ns then t.clock_ns <- raw;
  t.clock_ns

let now_ns t = refresh_clock t
let now t = Int64.of_int (now_ns t)

(* -- timers ------------------------------------------------------------- *)

let schedule_ns t ~at_ns f =
  let at_ns = if at_ns < t.clock_ns then t.clock_ns else at_ns in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Sim.Heap.add_ns t.timers ~key_ns:at_ns ~seq f;
  seq

let schedule t ~delay f =
  let d = Int64.to_int delay in
  let d = if d < 0 then 0 else d in
  schedule_ns t ~at_ns:(refresh_clock t + d) f

let schedule_at t ~at f =
  schedule_ns t ~at_ns:(Int64.to_int (Int64.max at 0L)) f

let cancel t h = Hashtbl.replace t.cancelled h ()

(* A cancel of an already-fired handle parks one entry in [cancelled]
   permanently (exactly as [Sim.Engine] accepts, see its .mli note);
   clamp so such parked entries never show as negative pending work. *)
let pending_timers t = max 0 (Sim.Heap.length t.timers - Hashtbl.length t.cancelled)

let fire_due t =
  let now = refresh_clock t in
  let continue = ref true in
  while !continue && not (Sim.Heap.is_empty t.timers) do
    if Sim.Heap.peek_key_ns t.timers <= now then begin
      let seq = Sim.Heap.peek_seq t.timers in
      let f = Sim.Heap.pop_value t.timers in
      if Hashtbl.mem t.cancelled seq then Hashtbl.remove t.cancelled seq
      else f ()
    end
    else continue := false
  done

(* Nanoseconds until the next live timer, within [0, cap]; [cap] when
   idle. *)
let wait_timeout_ns t ~cap =
  (* Skip cancelled heads so a pile of cancellations can't force a busy
     poll at their stale deadlines. *)
  let continue = ref true in
  while !continue && not (Sim.Heap.is_empty t.timers) do
    let seq = Sim.Heap.peek_seq t.timers in
    if Hashtbl.mem t.cancelled seq then begin
      Hashtbl.remove t.cancelled seq;
      let (_ : unit -> unit) = Sim.Heap.pop_value t.timers in
      ()
    end
    else continue := false
  done;
  if Sim.Heap.is_empty t.timers then cap
  else
    let gap_ns = Sim.Heap.peek_key_ns t.timers - t.clock_ns in
    if gap_ns <= 0 then 0 else min cap gap_ns

(* -- file descriptors --------------------------------------------------- *)

let interest t fd =
  (if Hashtbl.mem t.readers fd then Poller.read else 0)
  lor if Hashtbl.mem t.writers fd then Poller.write else 0

(* Tell the poller about a change of [fd]'s interest from [before]. *)
let sync t fd before =
  let after = interest t fd in
  if after <> before then
    if before = 0 then Poller.add t.poller fd after
    else if after = 0 then Poller.remove t.poller fd
    else Poller.modify t.poller fd after

let watch_read t fd f =
  let before = interest t fd in
  Hashtbl.replace t.readers fd f;
  sync t fd before

let watch_write t fd f =
  let before = interest t fd in
  Hashtbl.replace t.writers fd f;
  sync t fd before

let unwatch_write t fd =
  if Hashtbl.mem t.writers fd then begin
    let before = interest t fd in
    Hashtbl.remove t.writers fd;
    sync t fd before
  end

let unwatch t fd =
  let before = interest t fd in
  if before <> 0 then begin
    Hashtbl.remove t.readers fd;
    Hashtbl.remove t.writers fd;
    sync t fd before
  end

let on_tick t f =
  let h = t.next_tick in
  t.next_tick <- h + 1;
  t.ticks <- (h, f) :: t.ticks;
  h

let remove_tick t h = t.ticks <- List.filter (fun (h', _) -> h' <> h) t.ticks

(* -- driving ------------------------------------------------------------ *)

let max_block_ns = 50_000_000

let run_ticks t = List.iter (fun (_, f) -> f ()) t.ticks

(* A callback may unwatch (and close) fds that were also ready this
   round; dispatch only to fds still watched at call time. *)
let dispatch t tbl n bit =
  for i = 0 to n - 1 do
    if Poller.ready_events t.poller i land bit <> 0 then
      match Hashtbl.find_opt tbl (Poller.ready_fd t.poller i) with
      | Some f -> f ()
      | None -> ()
  done

let round t =
  fire_due t;
  run_ticks t;
  let n = Poller.wait t.poller ~timeout_ns:(wait_timeout_ns t ~cap:max_block_ns) in
  dispatch t t.readers n Poller.read;
  dispatch t t.writers n Poller.write;
  fire_due t;
  run_ticks t

let run_while t pred =
  t.stopped <- false;
  while (not t.stopped) && pred () do
    round t
  done

let run_for t ~span =
  let deadline = refresh_clock t + Int64.to_int span in
  run_while t (fun () -> refresh_clock t < deadline)

let stop t = t.stopped <- true

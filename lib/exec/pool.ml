(* Bounded domain worker pool. One shared FIFO work queue under a
   mutex/condvar; completions cross back to the owner through a second
   queue plus a self-pipe so a select-based event loop wakes as soon as
   results are ready. See pool.mli for the contract. *)

type task = unit -> unit

type t = {
  m : Mutex.t; (* guards work, stop, inflight and the stat counters *)
  cv : Condition.t;
  work : task Queue.t;
  mutable stop : bool;
  mutable inflight : int;
  budget : int;
  mutable domains : unit Domain.t array;
  (* completion side: owner-drained queue + empty->nonempty self-pipe *)
  dm : Mutex.t;
  done_q : task Queue.t;
  notify_r : Unix.file_descr;
  notify_w : Unix.file_descr;
  armed : bool Atomic.t; (* a byte may be in the pipe; set before each write *)
  drain_buf : bytes; (* owner-only scratch for emptying the pipe *)
  mutable closed : bool;
  (* stats (under [m] except [drained]/[busy_ns], under [dm]) *)
  mutable tasks : int;
  mutable inline_runs : int;
  mutable idle_waits : int;
  mutable drained : int;
  mutable busy_ns : int;
  (* set once at create; recorded from worker domains (DLS-sharded) *)
  mutable task_lat : Obs.Histogram.t option;
}

type stats = {
  tasks : int;
  inline_runs : int;
  idle_waits : int;
  drained : int;
  busy_ns : int;
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let worker t () =
  let rec loop () =
    let job =
      Mutex.protect t.m (fun () ->
          let rec take () =
            match Queue.take_opt t.work with
            | Some j -> Some j
            | None ->
                if t.stop then None
                else begin
                  t.idle_waits <- t.idle_waits + 1;
                  Condition.wait t.cv t.m;
                  take ()
                end
          in
          take ())
    in
    match job with
    | None -> ()
    | Some j ->
        let start = now_ns () in
        (* [j] never raises: [async] wraps the user function so the
           outcome (value or exception) is captured for [drain]. *)
        j ();
        let dt = now_ns () - start in
        (match t.task_lat with Some h -> Obs.Histogram.record h dt | None -> ());
        Mutex.protect t.m (fun () ->
            t.inflight <- t.inflight - 1;
            t.busy_ns <- t.busy_ns + (if dt > 0 then dt else 0));
        loop ()
  in
  loop ()

let create ?obs ?domains ?budget () =
  let domains =
    match domains with
    | Some d ->
        if d < 1 then invalid_arg "Exec.Pool.create: domains < 1";
        d
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let budget =
    match budget with
    | Some b ->
        if b < 1 then invalid_arg "Exec.Pool.create: budget < 1";
        b
    | None -> 64 * domains
  in
  let notify_r, notify_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock notify_r;
  Unix.set_nonblock notify_w;
  let t =
    {
      m = Mutex.create ();
      cv = Condition.create ();
      work = Queue.create ();
      stop = false;
      inflight = 0;
      budget;
      domains = [||];
      dm = Mutex.create ();
      done_q = Queue.create ();
      notify_r;
      notify_w;
      armed = Atomic.make false;
      drain_buf = Bytes.create 64;
      closed = false;
      tasks = 0;
      inline_runs = 0;
      idle_waits = 0;
      drained = 0;
      busy_ns = 0;
      task_lat = None;
    }
  in
  (match obs with
  | None -> ()
  | Some reg ->
      t.task_lat <-
        Some
          (Obs.Registry.histogram reg ~help:"verify task wall time (ns)"
             "leopard_verify_task_latency_ns");
      let depth =
        Obs.Registry.gauge reg ~help:"queued verify tasks" "leopard_verify_queue_depth"
      in
      let inflight =
        Obs.Registry.gauge reg ~help:"verify tasks in flight" "leopard_verify_inflight"
      in
      let c name help = Obs.Registry.counter reg ~help name in
      let tasks_c = c "leopard_verify_tasks_total" "tasks submitted (inline included)" in
      let inline_c = c "leopard_verify_inline_runs_total" "budget-full inline fallbacks" in
      let idle_c = c "leopard_verify_idle_waits_total" "worker idle transitions" in
      let drained_c = c "leopard_verify_drained_total" "completions delivered by drain" in
      (* Scrape-time mirror of the pool's own counters: the hot path
         keeps its existing mutex-guarded ints, obs pays nothing. *)
      Obs.Registry.on_collect reg (fun () ->
          let depth_v, inflight_v, tasks_v, inline_v, idle_v =
            Mutex.protect t.m (fun () ->
                (Queue.length t.work, t.inflight, t.tasks, t.inline_runs, t.idle_waits))
          in
          let drained_v = Mutex.protect t.dm (fun () -> t.drained) in
          Obs.Gauge.set depth depth_v;
          Obs.Gauge.set inflight inflight_v;
          Obs.Counter.mirror tasks_c tasks_v;
          Obs.Counter.mirror inline_c inline_v;
          Obs.Counter.mirror idle_c idle_v;
          Obs.Counter.mirror drained_c drained_v));
  t.domains <- Array.init domains (fun _ -> Domain.spawn (worker t));
  t

let size t = Array.length t.domains

(* Completion-queue side. The empty->nonempty transition arms the flag
   and then writes one byte; losing the write to a full pipe is fine (the
   pipe is already readable), losing it to a closed pipe means shutdown
   already ran. *)
let push_done t thunk =
  let was_empty =
    Mutex.protect t.dm (fun () ->
        let e = Queue.is_empty t.done_q in
        Queue.push thunk t.done_q;
        e)
  in
  if was_empty then begin
    Atomic.set t.armed true;
    try ignore (Unix.write t.notify_w (Bytes.make 1 '\001') 0 1)
    with
    | Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _) -> ()
  end

(* An unarmed pool has nothing to deliver yet: its completion queue is
   empty, or the push that filled it has not armed the flag, and will
   then write a byte that wakes the owner for the next drain. So the idle
   case is one atomic read, with no syscall and no allocation. Only the
   owner disarms, so read-then-clear needs no exchange. *)
let drain t =
  if not (Atomic.get t.armed) then 0
  else begin
    Atomic.set t.armed false;
    (* Disarm and clear the pipe first, then swap the queue: a push that
       lands after the swap re-arms and writes a fresh byte (the queue it
       saw was empty again), so no wakeup is ever lost. *)
    let buf = t.drain_buf in
    let rec clear () =
      match Unix.read t.notify_r buf 0 64 with
      | 64 -> clear ()
      | _ -> ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EBADF), _, _) -> ()
    in
    clear ();
    let pending = Queue.create () in
    Mutex.protect t.dm (fun () ->
        Queue.transfer t.done_q pending;
        t.drained <- t.drained + Queue.length pending);
    let n = Queue.length pending in
    Queue.iter (fun k -> k ()) pending;
    n
  end

let notify_fd t = t.notify_r

let async t f k =
  let job () =
    let outcome = try Ok (f ()) with e -> Error e in
    push_done t (fun () -> match outcome with Ok v -> k v | Error e -> raise e)
  in
  (* Past the in-flight budget the task runs on the caller, once [t.m]
     is released. *)
  let queued =
    Mutex.protect t.m (fun () ->
        if t.stop then invalid_arg "Exec.Pool: async after shutdown";
        t.tasks <- t.tasks + 1;
        if t.inflight >= t.budget then begin
          t.inline_runs <- t.inline_runs + 1;
          false
        end
        else begin
          t.inflight <- t.inflight + 1;
          Queue.push job t.work;
          Condition.signal t.cv;
          true
        end)
  in
  if not queued then job ()

let stats t =
  let tasks, inline_runs, idle_waits, busy_ns =
    Mutex.protect t.m (fun () -> (t.tasks, t.inline_runs, t.idle_waits, t.busy_ns))
  in
  let drained = Mutex.protect t.dm (fun () -> t.drained) in
  { tasks; inline_runs; idle_waits; drained; busy_ns }

let shutdown t =
  let already =
    Mutex.protect t.m (fun () ->
        let a = t.stop in
        t.stop <- true;
        Condition.broadcast t.cv;
        a)
  in
  if not already then begin
    Array.iter Domain.join t.domains;
    Mutex.protect t.dm (fun () -> Queue.clear t.done_q);
    if not t.closed then begin
      t.closed <- true;
      (try Unix.close t.notify_r with Unix.Unix_error _ -> ());
      try Unix.close t.notify_w with Unix.Unix_error _ -> ()
    end
  end

open Sim

type priority = High | Low

(* A queue entry is a burst of [remaining] same-size copies sharing one
   completion callback; an ordinary submit is a burst of one. The payload
   lives only in the [finish] closure, so an n-copy multicast costs one
   entry and one closure instead of n of each. *)
type item = {
  size : int;
  mutable remaining : int;
  finish : unit -> unit;
}

(* One physical line is [lanes] independent serializers sharing the two
   priority queues; each picks up the next queued copy when it goes idle. *)
type 'a t = {
  engine : Engine.t;
  mutable rate_bps : float;       (* total line rate, split across lanes *)
  lanes : int;
  on_done : 'a -> unit;
  high : item Queue.t;
  low : item Queue.t;
  mutable in_flight : int;        (* lanes currently transmitting *)
  mutable busy_ns : int;
}

let create ?(lanes = 1) engine ~rate_bps ~on_done =
  assert (lanes >= 1);
  { engine;
    rate_bps;
    lanes;
    on_done;
    high = Queue.create ();
    low = Queue.create ();
    in_flight = 0;
    busy_ns = 0 }

(* Same rounding as [Sim_time.of_sec], kept in immediate ints. *)
let tx_ns ~rate_bps ~size =
  if rate_bps <= 0. then 0
  else int_of_float (Float.round (float_of_int (size * 8) /. rate_bps *. 1e9))

let tx_time ~rate_bps ~size = Int64.of_int (tx_ns ~rate_bps ~size)

let rec start_next t =
  if t.in_flight < t.lanes then begin
    let q =
      if not (Queue.is_empty t.high) then t.high
      else t.low
    in
    if not (Queue.is_empty q) then begin
      let item = Queue.peek q in
      if item.remaining <= 1 then ignore (Queue.pop q)
      else item.remaining <- item.remaining - 1;
      t.in_flight <- t.in_flight + 1;
      let lane_rate = t.rate_bps /. float_of_int t.lanes in
      let dt_ns = tx_ns ~rate_bps:lane_rate ~size:item.size in
      t.busy_ns <- t.busy_ns + dt_ns;
      ignore (Engine.schedule_ns t.engine ~delay_ns:dt_ns item.finish);
      (* other idle lanes may pick up queued copies too *)
      start_next t
    end
  end

let submit_many t ~priority ~size ~copies payload =
  if copies >= 1 then begin
    let finish () =
      t.in_flight <- t.in_flight - 1;
      t.on_done payload;
      start_next t
    in
    let q = match priority with High -> t.high | Low -> t.low in
    Queue.push { size; remaining = copies; finish } q;
    start_next t
  end

let submit t ~priority ~size payload = submit_many t ~priority ~size ~copies:1 payload

let busy_span t = Int64.of_int t.busy_ns
let set_rate t rate = t.rate_bps <- rate

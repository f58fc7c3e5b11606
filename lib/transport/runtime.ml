type node = {
  loop : Loop.t;
  conn : Conn.t;
  platform : Core.Platform.t;
}

let node ~loop ~id ~n ?obs ?max_frame ?outbuf_hwm ?pool ?(verify = Core.Verify.inline)
    ?(store = Core.Store.null) () =
  (* The replica installs its handler via the platform after the conn
     exists; route deliveries through a cell to break the cycle. *)
  let handler = ref (fun ~src:_ (_ : Core.Msg.t) -> ()) in
  let conn =
    Conn.create ~loop ~id ?obs ?max_frame ?outbuf_hwm ?pool
      ~on_msg:(fun ~src msg -> !handler ~src msg)
      ()
  in
  let platform =
    { Core.Platform.n;
      now = (fun () -> Loop.now loop);
      schedule = (fun ~delay f -> ignore (Loop.schedule loop ~delay f : Loop.handle));
      schedule_at = (fun ~at f -> ignore (Loop.schedule_at loop ~at f : Loop.handle));
      set_handler = (fun h -> handler := h);
      send = (fun ~dst msg -> Conn.send conn ~dst msg);
      (* Encode-once: one frame string shared across all n-1 queues. *)
      multicast = (fun msg -> Conn.multicast conn ~n msg);
      charge_egress = (fun ~size:_ ~category:_ -> ());
      submit = (fun ~cost:_ f -> ignore (Loop.schedule loop ~delay:0L f : Loop.handle));
      submit_ns =
        (fun ~cost_ns:_ f -> ignore (Loop.schedule loop ~delay:0L f : Loop.handle));
      set_down = (fun down -> Conn.set_down conn down);
      (* Real crypto: no modeled cost to charge. The pooled dispatch
         moves it onto worker domains; read/write syscalls keep going
         while continuations wait for the next drain tick. *)
      verify;
      store }
  in
  { loop; conn; platform }

let platform t = t.platform
let conn t = t.conn
let listen t ?port () = Conn.listen t.conn ?port ()
let set_peer_addr t dst addr = Conn.set_peer_addr t.conn dst addr
let set_down t down = Conn.set_down t.conn down

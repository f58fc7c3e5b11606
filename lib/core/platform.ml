type t = {
  n : int;
  now : unit -> Sim.Sim_time.t;
  schedule : delay:Sim.Sim_time.span -> (unit -> unit) -> unit;
  schedule_at : at:Sim.Sim_time.t -> (unit -> unit) -> unit;
  set_handler : (src:Net.Node_id.t -> Msg.t -> unit) -> unit;
  send : dst:Net.Node_id.t -> Msg.t -> unit;
  multicast : Msg.t -> unit;
  charge_egress : size:int -> category:string -> unit;
  submit : cost:Sim.Sim_time.span -> (unit -> unit) -> unit;
  submit_ns : cost_ns:int -> (unit -> unit) -> unit;
  set_down : bool -> unit;
  verify : Verify.dispatch;
  store : Store.sink;
}

(* Each closure is exactly the call Replica made before the seam existed;
   nothing is reordered or cached, so a sim run through the platform is
   event-for-event the run the engine produced before. *)
let of_sim ?(store = Store.null) ~engine ~network ~id ~cores () =
  let cpu = Net.Cpu.create engine ~cores in
  { n = Net.Network.n network;
    now = (fun () -> Sim.Engine.now engine);
    schedule = (fun ~delay f -> ignore (Sim.Engine.schedule engine ~delay f));
    schedule_at = (fun ~at f -> ignore (Sim.Engine.schedule_at engine ~at f));
    set_handler = (fun h -> Net.Network.set_handler network id h);
    send = (fun ~dst msg -> Net.Network.send network ~src:id ~dst msg);
    multicast = (fun msg -> Net.Network.multicast network ~src:id msg);
    charge_egress =
      (fun ~size ~category -> Net.Network.charge_egress network ~src:id ~size ~category);
    submit = (fun ~cost f -> Net.Cpu.submit cpu ~cost f);
    submit_ns = (fun ~cost_ns f -> Net.Cpu.submit_ns cpu ~cost_ns f);
    set_down = (fun down -> Net.Network.set_down network id down);
    verify = Verify.inline;
    store }

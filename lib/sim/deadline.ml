type t = {
  schedule_at : at:Sim_time.t -> (unit -> unit) -> unit;
  mutable due : Sim_time.t;  (* [never]: empty *)
}

let never = Int64.max_int
let create schedule_at = { schedule_at; due = never }
let disarm d = d.due <- never

let arm d ~at f =
  if Sim_time.compare at d.due < 0 then begin
    d.due <- at;
    d.schedule_at ~at (fun () ->
        if Sim_time.compare d.due at = 0 then begin
          d.due <- never;
          f ()
        end)
  end

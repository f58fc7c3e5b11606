open Sim

type scheduler =
  now:Sim_time.t -> src:Node_id.t -> dst:Node_id.t -> Sim_time.span

let until_gst ~rng ~gst ~max_delay ~now ~src:_ ~dst:_ =
  if Sim_time.compare now gst >= 0 || Int64.compare max_delay 0L <= 0 then 0L
  else Int64.of_float (Rng.float rng (Int64.to_float max_delay))

let target_node ~gst ~victim ~delay ~now ~src ~dst =
  if Sim_time.compare now gst >= 0 then 0L
  else if Node_id.equal src victim || Node_id.equal dst victim then delay
  else 0L

let geo ~regions ~rtt_matrix ~now:_ ~src ~dst = rtt_matrix (regions src) (regions dst)

let combine schedulers ~now ~src ~dst =
  List.fold_left (fun acc sched -> Sim_time.( + ) acc (sched ~now ~src ~dst)) 0L schedulers

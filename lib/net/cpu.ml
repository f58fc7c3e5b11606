open Sim

(* Core-free instants and the busy accumulator are nanosecond ints so the
   per-message [submit] path allocates nothing beyond the engine event
   that runs the caller's callback (int64 spans would box on every compare/add without flambda). *)
type t = {
  engine : Engine.t;
  cores : int array;               (* ns instant each core becomes free *)
  mutable busy_ns : int;
}

let create engine ~cores =
  assert (cores >= 1);
  { engine; cores = Array.make cores 0; busy_ns = 0 }

let earliest_core t =
  let best = ref 0 in
  for i = 1 to Array.length t.cores - 1 do
    if t.cores.(i) < t.cores.(!best) then best := i
  done;
  !best

let submit_ns t ~cost_ns f =
  let core = earliest_core t in
  let now_ns = Engine.now_ns t.engine in
  let start = if now_ns > t.cores.(core) then now_ns else t.cores.(core) in
  let finish = start + cost_ns in
  t.cores.(core) <- finish;
  t.busy_ns <- t.busy_ns + cost_ns;
  ignore (Engine.schedule_ns t.engine ~delay_ns:(finish - now_ns) f)

let submit t ~cost f = submit_ns t ~cost_ns:(Int64.to_int cost) f

let busy_span t = Int64.of_int t.busy_ns

type t = {
  n : int;
  f : int;
  batch_size : int;
  payload : int;
  propose_timeout : Sim.Sim_time.span;
  cost : Crypto.Cost_model.t;
  cores : int;
}

let make ~n ?(batch_size = 800) ?(payload = 128) ?(propose_timeout = Sim.Sim_time.ms 50)
    ?(cost = Crypto.Cost_model.ecdsa_only) ?(cores = 4) () =
  if n < 4 then invalid_arg "Hs_config.make: n must be at least 4";
  if batch_size < 1 then invalid_arg "Hs_config.make: batch_size must be positive";
  { n; f = (n - 1) / 3; batch_size; payload; propose_timeout; cost; cores }

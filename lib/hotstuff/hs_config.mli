(** HotStuff baseline configuration. *)

type t = {
  n : int;
  f : int;
  batch_size : int;       (** requests per block (the paper's HotStuff batch) *)
  payload : int;          (** request payload bytes *)
  propose_timeout : Sim.Sim_time.span;
      (** propose a partial batch after this delay (libhotstuff-style) *)
  cost : Crypto.Cost_model.t;
  cores : int;
}

val make :
  n:int ->
  ?batch_size:int ->
  ?payload:int ->
  ?propose_timeout:Sim.Sim_time.span ->
  ?cost:Crypto.Cost_model.t ->
  ?cores:int ->
  unit ->
  t
(** Defaults: batch 800 (the paper's Table 2 HotStuff setting), 128-byte
    payload, 50 ms partial-batch timeout, ECDSA-like costs (libhotstuff
    instantiates QCs with secp256k1 signature vectors), 4 cores.
    Requires [n >= 4]. *)

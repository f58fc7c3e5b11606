type public_key = string (* 32-byte commitment to the private key *)
type private_key = string (* 32 random bytes *)
type t = string (* HMAC tag *)

let size_bytes = 64

(* Verification oracle: pk -> the HMAC schedule of sk, computed once at
   keygen. Private to this module, so protocol code (honest or Byzantine)
   can only produce valid tags through [sign]. The table is mutated by
   [keygen] and read by [verify], which Exec.Pool runs from worker
   domains — Hashtbl is not domain-safe (resize during a concurrent read
   can crash), so both sides take [registry_mu]. Keygen is setup-time and
   verify's critical section is one probe; contention is negligible next
   to the HMAC compute done outside the lock. *)
let registry : (string, Sha256.hmac_key) Hashtbl.t = Hashtbl.create 64
let registry_mu = Mutex.create ()

let keygen rng =
  let sk =
    String.concat ""
      (List.init 4 (fun _ ->
           let v = Sim.Rng.int64 rng in
           String.init 8 (fun i ->
               Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))))
  in
  let pk = Sha256.digest_strings [ "leopard.sig.pk"; sk ] in
  let key = Sha256.hmac_key sk in
  Mutex.protect registry_mu (fun () -> Hashtbl.replace registry pk key);
  (pk, sk)

let sign sk msg = Sha256.hmac ~key:sk msg

(* Allocation-free: every receiver checks every datablock signature. *)
let verify pk tag msg =
  Mutex.lock registry_mu;
  match Hashtbl.find registry pk with
  | key ->
    Mutex.unlock registry_mu;
    Sha256.hmac_verify key msg ~tag
  | exception Not_found ->
    Mutex.unlock registry_mu;
    false

let to_raw t = t

let of_raw s =
  assert (String.length s = 32);
  s

let equal = String.equal

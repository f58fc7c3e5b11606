type t = {
  id : int;
  count : int;
  size_each : int;
  born : Sim.Sim_time.t;
  resend : bool;
  confirmed : bool ref;
}

let framing_bytes = 32

let make ~id ~count ~size_each ~born ?(resend = false) () =
  assert (count > 0 && size_each >= 0);
  { id; count; size_each; born; resend; confirmed = ref false }

let resend_of t = { t with resend = true }

let is_confirmed t = !(t.confirmed)
let mark_confirmed t = t.confirmed := true

let payload_bytes t = t.count * t.size_each
let wire_bytes t = payload_bytes t + framing_bytes

(* The bytes of [Printf.sprintf "batch:%d:%d:%d:%Ld:%b"], built without
   Printf: this string is hashed once per request on every datablock
   check. [born] comes off the wire as any int64; one outside the int
   range, which no honest clock produces, goes through [Int64.to_string]. *)
let born_text t =
  let born = Int64.to_int t.born in
  if Int64.equal (Int64.of_int born) t.born then "" else Int64.to_string t.born

let flag t = if t.resend then "true" else "false"

let encoded_length t born_text =
  10 + Decimal.width t.id + Decimal.width t.count + Decimal.width t.size_each
  + (if born_text = "" then Decimal.width (Int64.to_int t.born) else String.length born_text)
  + String.length (flag t)

let field b n pos =
  let pos = Decimal.blit n b pos in
  Bytes.unsafe_set b pos ':';
  pos + 1

(* Writes the encoding at the start of [b], which holds [encoded_length]
   bytes or more. *)
let encode_into t born_text b =
  Bytes.blit_string "batch:" 0 b 0 6;
  let pos = field b t.size_each (field b t.count (field b t.id 6)) in
  let pos =
    if born_text = "" then Decimal.blit (Int64.to_int t.born) b pos
    else begin
      Bytes.blit_string born_text 0 b pos (String.length born_text);
      pos + String.length born_text
    end
  in
  Bytes.unsafe_set b pos ':';
  let flag = flag t in
  Bytes.blit_string flag 0 b (pos + 1) (String.length flag)

let encode t =
  let born_text = born_text t in
  let b = Bytes.create (encoded_length t born_text) in
  encode_into t born_text b;
  Bytes.unsafe_to_string b

let hash t = Crypto.Hash.of_string (encode t)

(* Domain-local: datablock checks run on verify-pool domains. An
   encoding is at most 95 bytes: "batch:", four integers of at most 20
   characters each, four ':' and "false". *)
let scratch_key = Domain.DLS.new_key (fun () -> Bytes.create 128)

let hash_into t dst off =
  let born_text = born_text t in
  let len = encoded_length t born_text in
  let b = Domain.DLS.get scratch_key in
  encode_into t born_text b;
  Crypto.Sha256.digest_bytes_into ~src:b ~src_off:0 ~len ~dst ~dst_off:off

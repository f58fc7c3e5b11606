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
let encode t =
  let born = Int64.to_int t.born in
  let born_text = if Int64.equal (Int64.of_int born) t.born then "" else Int64.to_string t.born in
  let flag = if t.resend then "true" else "false" in
  let len =
    10 + Decimal.width t.id + Decimal.width t.count + Decimal.width t.size_each
    + (if born_text = "" then Decimal.width born else String.length born_text)
    + String.length flag
  in
  let b = Bytes.create len in
  Bytes.blit_string "batch:" 0 b 0 6;
  let field n pos =
    let pos = Decimal.blit n b pos in
    Bytes.unsafe_set b pos ':';
    pos + 1
  in
  let pos = field t.size_each (field t.count (field t.id 6)) in
  let pos =
    if born_text = "" then Decimal.blit born b pos
    else begin
      Bytes.blit_string born_text 0 b pos (String.length born_text);
      pos + String.length born_text
    end
  in
  Bytes.unsafe_set b pos ':';
  Bytes.blit_string flag 0 b (pos + 1) (String.length flag);
  Bytes.unsafe_to_string b

let hash t = Crypto.Hash.of_string (encode t)

type direction = Sent | Received

type t = {
  sent : (string, int ref) Hashtbl.t;
  received : (string, int ref) Hashtbl.t;
}

let create () = { sent = Hashtbl.create 16; received = Hashtbl.create 16 }

let table t = function
  | Sent -> t.sent
  | Received -> t.received

(* Called twice per delivered message; [Hashtbl.find] + [Not_found]
   avoids allocating [find_opt]'s [Some] on the hit path. *)
let record t dir ~category bytes =
  let tbl = table t dir in
  match Hashtbl.find tbl category with
  | r -> r := !r + bytes
  | exception Not_found -> Hashtbl.add tbl category (ref bytes)

let total t dir = Hashtbl.fold (fun _ r acc -> acc + !r) (table t dir) 0

let by_category t dir =
  Hashtbl.fold (fun cat r acc -> (cat, !r) :: acc) (table t dir) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let category_total t dir category =
  match Hashtbl.find_opt (table t dir) category with
  | Some r -> !r
  | None -> 0

let reset t =
  Hashtbl.reset t.sent;
  Hashtbl.reset t.received


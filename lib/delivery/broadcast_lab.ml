open Sim

type strategy =
  | Direct
  | Tree of { fanout : int }
  | Erasure of { k : int }

type result = {
  honest : int;
  delivered : int;
  completion : Sim_time.span option;
  source_egress : int;
  max_replica_egress : int;
  total_bytes : int;
  decode_failures : int;
}

type msg =
  | Full of { payload : string }
  | Fragment of Crypto.Reed_solomon.fragment

let overhead = 48 (* framing + signature, as in the protocol messages *)

let wire_size = function
  | Full { payload } -> String.length payload + overhead
  | Fragment f -> Bytes.length f.Crypto.Reed_solomon.data + overhead

let meta =
  Net.Network.
    { size = wire_size; category = (fun _ -> "delivery"); priority = (fun _ -> Net.Nic.Low) }

(* Tree shape: replicas in id order form a complete fanout-ary tree
   rooted at the source (id 0): children of tree position p are
   fanout*p + 1 .. fanout*p + fanout. *)
let tree_children ~n ~fanout p =
  List.filter (fun c -> c < n) (List.init fanout (fun i -> (fanout * p) + 1 + i))

let run ?(seed = 7L) ?(link = Net.Network.default_link) ~n ~payload ~byzantine strategy =
  assert (n >= 2 && String.length payload > 0);
  let engine = Engine.create ~seed () in
  let network = Net.Network.create engine ~n ~meta ~link in
  let source = 0 in
  let is_byz id = List.mem id byzantine in
  assert (not (is_byz source));
  let delivered_at = Array.make n None in
  let decode_failures = ref 0 in
  let deliver id =
    if delivered_at.(id) = None then delivered_at.(id) <- Some (Engine.now engine)
  in
  deliver source;
  (match strategy with
   | Direct ->
     for id = 0 to n - 1 do
       Net.Network.set_handler network id (fun ~src:_ m ->
           match m with
           | Full _ -> if not (is_byz id) then deliver id
           | Fragment _ -> ())
     done;
     Net.Network.multicast network ~src:source (Full { payload })
   | Tree { fanout } ->
     assert (fanout >= 1);
     for id = 0 to n - 1 do
       Net.Network.set_handler network id (fun ~src:_ m ->
           match m with
           | Full _ ->
             if not (is_byz id) then begin
               deliver id;
               (* honest relays forward to their children; Byzantine
                  inner nodes silently sever their subtree *)
               List.iter
                 (fun child -> Net.Network.send network ~src:id ~dst:child m)
                 (tree_children ~n ~fanout id)
             end
           | Fragment _ -> ())
     done;
     List.iter
       (fun child -> Net.Network.send network ~src:source ~dst:child (Full { payload }))
       (tree_children ~n ~fanout source)
   | Erasure { k } ->
     assert (1 <= k && k <= n - 1);
     let fragments = Crypto.Reed_solomon.encode ~k ~n:(n - 1) payload in
     let collected : (int, Crypto.Reed_solomon.fragment list ref) Hashtbl.t = Hashtbl.create n in
     let got id =
       match Hashtbl.find_opt collected id with
       | Some r -> r
       | None ->
         let r = ref [] in
         Hashtbl.add collected id r;
         r
     in
     let try_decode id =
       if delivered_at.(id) = None then begin
         let frags = !(got id) in
         if List.length (List.sort_uniq compare (List.map (fun f -> f.Crypto.Reed_solomon.index) frags)) >= k
         then
           match Crypto.Reed_solomon.decode ~k ~len:(String.length payload) frags with
           | Some recovered when String.equal recovered payload -> deliver id
           | Some _ | None -> incr decode_failures
       end
     in
     for id = 0 to n - 1 do
       Net.Network.set_handler network id (fun ~src:_ m ->
           match m with
           | Fragment f ->
             if not (is_byz id) then begin
               let r = got id in
               let fresh =
                 not
                   (List.exists
                      (fun g -> g.Crypto.Reed_solomon.index = f.Crypto.Reed_solomon.index)
                      !r)
               in
               if fresh then begin
                 r := f :: !r;
                 (* first touch of our own fragment: rebroadcast it *)
                 if f.Crypto.Reed_solomon.index = id - 1 then
                   Net.Network.multicast network ~src:id m;
                 try_decode id
               end
             end
           | Full _ -> ())
     done;
     (* source keeps all fragments; each replica i gets fragment i-1 *)
     List.iteri
       (fun i frag ->
         Net.Network.send network ~src:source ~dst:(i + 1) (Fragment frag))
       fragments);
  Engine.run engine;
  let honest_ids = List.filter (fun id -> not (is_byz id)) (List.init n Fun.id) in
  let delivered = List.length (List.filter (fun id -> delivered_at.(id) <> None) honest_ids) in
  let completion =
    if delivered = List.length honest_ids then
      List.fold_left
        (fun acc id -> match delivered_at.(id) with Some t -> Sim_time.max acc t | None -> acc)
        Sim_time.zero honest_ids
      |> Option.some
    else None
  in
  let egress id = Net.Bandwidth.total (Net.Network.stats network id) Net.Bandwidth.Sent in
  let max_replica_egress =
    List.fold_left (fun acc id -> if id = source then acc else max acc (egress id)) 0
      (List.init n Fun.id)
  in
  { honest = List.length honest_ids;
    delivered;
    completion;
    source_egress = egress source;
    max_replica_egress;
    total_bytes = List.fold_left (fun acc id -> acc + egress id) 0 (List.init n Fun.id);
    decode_failures = !decode_failures }

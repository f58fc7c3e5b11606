type what = W_drop | W_delay of Sim.Sim_time.span | W_duplicate

type active = { rule : Scenario.rule; what : what }

type t = {
  n : int;
  rng : Sim.Rng.t;
  mutable group_of : int array option;  (* group index per replica id *)
  mutable rules : active list;          (* install order; first match wins *)
}

let create ~n ~rng = { n; rng; group_of = None; rules = [] }

let set_partition t groups =
  let g = Array.make t.n (-1) in
  List.iteri (fun gi ids -> List.iter (fun id -> g.(id) <- gi) ids) groups;
  (* unlisted replicas share one implicit further group *)
  let implicit = List.length groups in
  Array.iteri (fun id gi -> if gi < 0 then g.(id) <- implicit) g;
  t.group_of <- Some g

let apply t (a : Scenario.action) =
  match a with
  | Scenario.Crash _ | Scenario.Revive _ | Scenario.Restart _ -> false
  | Scenario.Partition groups ->
    set_partition t groups;
    true
  | Scenario.Heal ->
    t.group_of <- None;
    t.rules <- [];
    true
  | Scenario.Drop r ->
    t.rules <- t.rules @ [ { rule = r; what = W_drop } ];
    true
  | Scenario.Delay (r, d) ->
    t.rules <- t.rules @ [ { rule = r; what = W_delay d } ];
    true
  | Scenario.Duplicate r ->
    t.rules <- t.rules @ [ { rule = r; what = W_duplicate } ];
    true

let matches (r : Scenario.rule) ~src ~dst kind =
  (match r.src with None -> true | Some s -> Net.Node_id.equal s src)
  && (match r.dst with None -> true | Some d -> Net.Node_id.equal d dst)
  && match r.kinds with None -> true | Some ks -> List.mem kind ks

let decide t ~src ~dst msg : Net.Network.fault_verdict =
  let cut =
    match t.group_of with
    | None -> false
    | Some g -> g.(src) <> g.(dst)
  in
  if cut then Drop
  else if t.rules == [] then Pass
  else begin
    let kind = Core.Msg.kind msg in
    let rec go : _ -> Net.Network.fault_verdict = function
      | [] -> Pass
      | { rule; what } :: rest ->
        if matches rule ~src ~dst kind then
          (* the RNG is drawn only on a match, and only for p < 1, so
             deterministic scenarios never consume randomness *)
          if rule.prob >= 1.0 || Sim.Rng.float t.rng 1.0 < rule.prob then
            match what with
            | W_drop -> Drop
            | W_delay d -> Delay d
            | W_duplicate -> Duplicate
          else Pass
        else go rest
    in
    go t.rules
  end

let active_rules t = List.length t.rules
let partitioned t = t.group_of <> None

type check = { label : string; ok : bool; detail : string }

type verdict = check list

let ok v = List.for_all (fun c -> c.ok) v

type outcome = {
  scenario : Scenario.t;
  plane : string;
  seed : int64;
  verdict : verdict;
  confirmed_at_heal : int;
  confirmed : int;
  final_view : int;
  view_changes : int;
  equivocations : int;
  pack_age_max : Sim.Sim_time.span;
  wall_sec : float;
  trace : string;
}

let outcome_ok o = ok o.verdict

(* Deterministic rendering of a run's trace: entry per line via
   [Trace.pp_entry]. For same-seed sim runs the result is byte-identical,
   which is what the replay test pins. *)
let render_trace trace =
  let buf = Buffer.create 65536 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter
    (fun e -> Format.fprintf fmt "%a@." Sim.Trace.pp_entry e)
    (Sim.Trace.entries trace);
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let expectations ~(scenario : Scenario.t) driver =
  let final_view = Core.Driver.final_view driver in
  let equivocations = Core.Driver.equivocations driver in
  let expect = scenario.expect in
  List.filter_map Fun.id
    [ (if expect.view_change then
         Some
           { label = "view-change";
             ok = final_view >= 2;
             detail = Printf.sprintf "final view %d (expected >= 2)" final_view }
       else None);
      (if expect.equivocation then
         Some
           { label = "equivocation-detected";
             ok = equivocations > 0;
             detail = Printf.sprintf "%d equivocation pairs collected" equivocations }
       else None);
      (if expect.no_equivocation then
         Some
           { label = "no-double-vote";
             ok = equivocations = 0;
             detail =
               Printf.sprintf
                 "%d equivocation pairs (restarted replicas must re-vote identically)"
                 equivocations }
       else None);
      Option.map
        (fun id ->
          { label = "state-sync";
            ok = Core.Driver.synced driver id;
            detail =
              Format.asprintf "replica %a back at the honest execution frontier"
                Net.Node_id.pp id })
        expect.state_sync ]

let judge ~scenario ~plane ~seed ~confirmed_at_heal ~wall_sec ~trace driver =
  let confirmed = Core.Driver.confirmed driver in
  let standing =
    [ { label = "safety";
        ok = Core.Driver.ledgers_agree driver;
        detail = "honest executed ledgers agree position-wise" };
      { label = "liveness";
        ok = confirmed > confirmed_at_heal;
        detail =
          Printf.sprintf "confirmed %d -> %d within the settle bound"
            confirmed_at_heal confirmed } ]
  in
  { scenario;
    plane;
    seed;
    verdict = standing @ expectations ~scenario driver;
    confirmed_at_heal;
    confirmed;
    final_view = Core.Driver.final_view driver;
    view_changes = Core.Driver.view_changes driver;
    equivocations = Core.Driver.equivocations driver;
    pack_age_max = Core.Driver.pack_age_max driver;
    wall_sec;
    trace = render_trace trace }

let pp_check fmt c =
  Format.fprintf fmt "%s %-22s %s" (if c.ok then "ok  " else "FAIL") c.label c.detail

let pp_verdict fmt v =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_check fmt v

let pp_outcome fmt o =
  Format.fprintf fmt "%s %-3s %-24s n=%-3d seed=%-4Ld v%d vc=%d conf=%d->%d eq=%d %.1fs"
    (if outcome_ok o then "PASS" else "FAIL")
    o.plane o.scenario.Scenario.name o.scenario.Scenario.n o.seed o.final_view
    o.view_changes o.confirmed_at_heal o.confirmed o.equivocations o.wall_sec;
  if not (outcome_ok o) then
    List.iter
      (fun c -> if not c.ok then Format.fprintf fmt "@,  FAIL %s: %s" c.label c.detail)
      o.verdict

let pp_outcomes fmt outcomes =
  let passed = List.length (List.filter outcome_ok outcomes) in
  Format.fprintf fmt "@[<v>%a@,%d/%d scenarios passed@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_outcome)
    outcomes passed (List.length outcomes)

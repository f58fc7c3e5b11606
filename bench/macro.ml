(* Macro-benchmark: wall-clock cost of *simulating* the full Leopard
   protocol as n grows, with a JSON baseline and per-n regression gates.

   Where [Micro] measures the byte-level primitives (SHA-256, codec,
   vote payloads), this measures the event-level substrate: how much
   host time and allocation one simulated second costs at n replicas.
   The paper's headline runs go to n = 600 (Fig. 8/9, Table 3); those
   reproductions are only tractable if the per-event and per-message
   simulator overheads stay flat in n, which is what this bench gates.

     dune exec bench/main.exe -- --only macro
     dune exec bench/main.exe -- --only macro --fast
     dune exec bench/main.exe -- --only macro --check-regressions

   Each row runs the complete protocol (datablock dissemination, two
   vote rounds, checkpoints) for a fixed simulated window and reports

     - wall-clock seconds, and simulated-seconds per wall-second,
     - events fired and events per wall-second,
     - GC minor words per event and per delivered protocol message
       (the multicast fan-out cost the shared-packet path optimizes).

   The run writes [BENCH_sim.json]; with [--check-regressions] it
   compares against the checked-in baseline instead and exits nonzero
   when any n got more than 2x slower (wall-clock) or more than 2x more
   allocation-hungry (minor words/event, minor words/message). *)

type row = {
  n : int;
  sim_s : float;            (* simulated window *)
  wall_s : float;
  events : int;
  events_per_s : float;
  minor_words_per_event : float;
  delivered_msgs : int;
  minor_words_per_msg : float;
  confirmed : int;          (* requests confirmed: a cheap cross-rewrite
                               determinism fingerprint, not a perf metric *)
}

let baseline_file = "BENCH_sim.json"
let regression_factor = 2.0

(* ------------------------------------------------------------------ *)
(* One measured run                                                     *)
(* ------------------------------------------------------------------ *)

(* A fixed offered load across n: the protocol work per simulated second
   is then load-bound, so the measured growth in events and words is the
   fan-out cost of scale, not a larger workload. Batch sizes are pinned
   small for the same reason — with the paper's adaptive alpha, large n
   would spend the whole short window filling its first datablock and the
   bench would measure an idle simulator. *)
let macro_load = 5e4

let durations ~fast n =
  let sim = if n <= 64 then 10 else if n <= 128 then 8 else 6 in
  if fast then max 3 (sim / 2) else sim

let run_one ~fast n =
  let sim_seconds = durations ~fast n in
  let cfg = Core.Config.make ~n ~alpha:250 ~bft_size:50 () in
  let duration = Sim.Sim_time.s sim_seconds in
  let sp =
    Core.Runner.spec ~cfg ~load:macro_load ~duration
      ~warmup:(Sim.Sim_time.s 1) ()
  in
  let t = Core.Runner.create sp in
  Gc.full_major ();
  let minor0 = Gc.minor_words () in
  let wall0 = Unix.gettimeofday () in
  Core.Runner.run_until t duration;
  let wall_s = Unix.gettimeofday () -. wall0 in
  let minor = Gc.minor_words () -. minor0 in
  let r = Core.Runner.report t in
  let events = Sim.Engine.events_fired (Core.Runner.engine t) in
  let delivered = Net.Network.delivered_messages (Core.Runner.network t) in
  { n;
    sim_s = float_of_int sim_seconds;
    wall_s;
    events;
    events_per_s = (if wall_s <= 0. then 0. else float_of_int events /. wall_s);
    minor_words_per_event = (if events = 0 then 0. else minor /. float_of_int events);
    delivered_msgs = delivered;
    minor_words_per_msg = (if delivered = 0 then 0. else minor /. float_of_int delivered);
    confirmed = r.Core.Runner.confirmed }

let ns ~fast = if fast then [ 4; 16; 64 ] else [ 4; 16; 64; 128; 300 ]

(* ------------------------------------------------------------------ *)
(* JSON baseline (same line-per-entry shape as BENCH_micro.json)        *)
(* ------------------------------------------------------------------ *)

let write_baseline path rows =
  let oc = open_out path in
  output_string oc "{\n";
  output_string oc "  \"generated_by\": \"dune exec bench/main.exe -- --only macro\",\n";
  output_string oc "  \"benchmarks\": [\n";
  let count = List.length rows in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"n\": %d, \"sim_s\": %.1f, \"wall_s\": %.2f, \"events\": %d, \
         \"events_per_s\": %.0f, \"minor_words_per_event\": %.1f, \
         \"delivered_msgs\": %d, \"minor_words_per_msg\": %.1f, \"confirmed\": %d}%s\n"
        r.n r.sim_s r.wall_s r.events r.events_per_s r.minor_words_per_event
        r.delivered_msgs r.minor_words_per_msg r.confirmed
        (if i = count - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc

let read_baseline path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let entries = ref [] in
    (try
       while true do
         let line = String.trim (input_line ic) in
         let line =
           if String.length line > 0 && line.[String.length line - 1] = ',' then
             String.sub line 0 (String.length line - 1)
           else line
         in
         match
           Scanf.sscanf_opt line
             "{\"n\": %d, \"sim_s\": %f, \"wall_s\": %f, \"events\": %d, \
              \"events_per_s\": %f, \"minor_words_per_event\": %f, \
              \"delivered_msgs\": %d, \"minor_words_per_msg\": %f, \"confirmed\": %d}"
             (fun n sim_s wall_s events events_per_s minor_words_per_event delivered_msgs
                  minor_words_per_msg confirmed ->
               { n; sim_s; wall_s; events; events_per_s; minor_words_per_event;
                 delivered_msgs; minor_words_per_msg; confirmed })
         with
         | Some r -> entries := r :: !entries
         | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    Some (List.rev !entries)
  end

(* ------------------------------------------------------------------ *)
(* Rendering and gates                                                  *)
(* ------------------------------------------------------------------ *)

let render rows =
  let fmt_rows =
    List.map
      (fun r ->
        [ string_of_int r.n;
          Printf.sprintf "%.0f" r.sim_s;
          Printf.sprintf "%.2f" r.wall_s;
          Printf.sprintf "%.2fM" (float_of_int r.events /. 1e6);
          Printf.sprintf "%.2fM" (r.events_per_s /. 1e6);
          Printf.sprintf "%.1f" r.minor_words_per_event;
          Printf.sprintf "%.1f" r.minor_words_per_msg;
          string_of_int r.confirmed ])
      rows
  in
  Stats.Text_table.render
    ~headers:
      [ "n"; "sim s"; "wall s"; "events"; "events/s"; "words/event"; "words/msg"; "confirmed" ]
    fmt_rows

let check_regressions ~baseline rows =
  let failures =
    List.concat_map
      (fun r ->
        match List.find_opt (fun b -> b.n = r.n) baseline with
        | None -> []
        | Some b ->
          let gate what current base =
            if base > 0. && current > regression_factor *. base then
              [ ( Printf.sprintf "n=%d %s: %.2f vs baseline %.2f (%.1fx)" r.n what current
                    base (current /. base),
                  (Printf.sprintf "n=%d %s" r.n what, current /. base) ) ]
            else []
          in
          gate "wall_s" r.wall_s b.wall_s
          @ gate "minor_words_per_event" r.minor_words_per_event b.minor_words_per_event
          (* Gated since the n=300 anomaly: words/msg had crept superlinear
             in n through [retry_waiting_proposals] allocating a snapshot
             per datablock arrival; it is flat (~186 at n=128 and n=300)
             now that the retry pre-scans without allocating, and this
             gate keeps it that way. *)
          @ gate "minor_words_per_msg" r.minor_words_per_msg b.minor_words_per_msg)
      rows
  in
  match failures with
  | [] ->
    Harness.say "macro: PASS no regressions > %.1fx against %s" regression_factor baseline_file;
    true
  | fs ->
    List.iter (fun (f, _) -> Harness.say "REGRESSION %s" f) fs;
    let worst_name, worst_factor =
      List.fold_left
        (fun ((_, wf) as acc) (_, (name, f)) -> if f > wf then (name, f) else acc)
        ("", 0.) fs
    in
    Harness.say "macro: FAIL %d gate(s) exceeded %.1fx vs %s (worst %s %.1fx)" (List.length fs)
      regression_factor baseline_file worst_name worst_factor;
    false

let run ~fast ~check =
  let rows =
    List.map
      (fun n ->
        let r = run_one ~fast n in
        Harness.say "  n=%-4d %.2fs wall for %.0fs simulated (%d events, %d msgs)" n r.wall_s
          r.sim_s r.events r.delivered_msgs;
        r)
      (ns ~fast)
  in
  Harness.say "";
  Harness.say "%s" (render rows);
  Harness.say "";
  if check then begin
    match read_baseline baseline_file with
    | None | Some [] ->
      Harness.say "no baseline %s found; writing a fresh one" baseline_file;
      write_baseline baseline_file rows
    | Some baseline -> if not (check_regressions ~baseline rows) then exit 1
  end
  else begin
    write_baseline baseline_file rows;
    Harness.say "baseline written to %s" baseline_file
  end

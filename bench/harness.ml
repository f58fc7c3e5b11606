(* Shared machinery for the per-figure/table benches: canonical runs with
   memoization (several figures read the same sweep), duration scaling,
   and printing helpers. *)

open Sim

let fast_mode = ref false

let say fmt = Format.printf (fmt ^^ "@.")

let header ~id ~title ~paper =
  say "";
  say "================================================================";
  say "%s — %s" id title;
  say "  paper: %s" paper;
  say "================================================================"

(* Offered loads (requests/s). Leopard is driven at a high offered load it
   can sustain at every n; HotStuff is driven to saturation. *)
let leopard_load = 1.5e5
let hotstuff_load = 3.0e5

(* Simulated durations grow with n: at the paper's Table 2 batch sizes a
   BFTblock carries alpha x BFTsize requests, so large n needs a longer
   window to capture several confirmations. *)
let leopard_durations n =
  (* The window must cover several BFTblocks (alpha x BFTsize requests
     each) or block-boundary quantization skews the measured rate. *)
  let d, w =
    if n <= 64 then (25, 7)
    else if n <= 128 then (40, 10)
    else if n <= 256 then (60, 14)
    else (85, 20)
  in
  if !fast_mode then (Sim_time.s (max 10 (d / 3)), Sim_time.s (max 3 (w / 3)))
  else (Sim_time.s d, Sim_time.s w)

let hotstuff_durations _n =
  if !fast_mode then (Sim_time.s 8, Sim_time.s 3) else (Sim_time.s 15, Sim_time.s 5)

(* ------------------------------------------------------------------ *)
(* Memoized canonical runs                                             *)
(* ------------------------------------------------------------------ *)

let leopard_cache : (string, Core.Runner.report) Hashtbl.t = Hashtbl.create 16

let run_leopard ?(load = leopard_load) ?link ?alpha ?bft_size ?(payload = 128)
    ?priority_channels ?leader_generates_datablocks n =
  let key =
    Printf.sprintf "%d:%f:%s:%s:%s:%d:%s:%s" n load
      (match link with
       | Some l -> Printf.sprintf "%f/%d" l.Net.Network.out_bps l.Net.Network.lanes
       | None -> "-")
      (match alpha with Some a -> string_of_int a | None -> "-")
      (match bft_size with Some b -> string_of_int b | None -> "-")
      payload
      (match priority_channels with Some b -> string_of_bool b | None -> "-")
      (match leader_generates_datablocks with Some b -> string_of_bool b | None -> "-")
  in
  match Hashtbl.find_opt leopard_cache key with
  | Some r -> r
  | None ->
    let cfg =
      Core.Config.make ~n ?alpha ?bft_size ~payload ?priority_channels
        ?leader_generates_datablocks ()
    in
    let duration, warmup = leopard_durations n in
    let sp =
      Core.Runner.spec ~cfg ?link ~load ~duration ~warmup
        ~byzantine:(Core.Runner.silent_f cfg) ()
    in
    let r = Core.Runner.run sp in
    Hashtbl.add leopard_cache key r;
    r

let hotstuff_cache : (string, Baseline.report) Hashtbl.t = Hashtbl.create 16

let run_hotstuff ?(load = hotstuff_load) ?link ?(batch = 800) ?(payload = 128) n =
  let key =
    Printf.sprintf "%d:%f:%s:%d:%d" n load
      (match link with Some l -> string_of_float l.Net.Network.out_bps | None -> "-")
      batch payload
  in
  match Hashtbl.find_opt hotstuff_cache key with
  | Some r -> r
  | None ->
    let cfg = Hotstuff.Hs_config.make ~n ~batch_size:batch ~payload () in
    let duration, warmup = hotstuff_durations n in
    let sp = Hotstuff.Hs_replica.spec ~cfg ?link ~load ~duration ~warmup () in
    let r = Hotstuff.Hs_replica.run sp in
    Hashtbl.add hotstuff_cache key r;
    r

let run_pbft ?(load = hotstuff_load) ?(batch = 400) ?(payload = 128) n =
  let cfg = Pbft.make_cfg ~n ~batch_size:batch ~payload () in
  let duration, warmup = hotstuff_durations n in
  Pbft.run (Pbft.spec ~cfg ~load ~duration ~warmup ())

(* ------------------------------------------------------------------ *)
(* Formatting helpers                                                  *)
(* ------------------------------------------------------------------ *)

let kops v = Printf.sprintf "%.1f" (v /. 1e3)
let mbps_str bps = Printf.sprintf "%.1f" (bps /. 1e6)
let gbps_str bps = Printf.sprintf "%.2f" (bps /. 1e9)
let seconds v = if Float.is_nan v then "-" else Printf.sprintf "%.2f" v

(* A run report's median latency in seconds ([nan] when empty). *)
let p50_s h = Obs.Histogram.Snapshot.quantile h 0.5 /. 1e9
let latency_p50 h = seconds (p50_s h)

(* Bench_gate: the committed baselines round-trip through the bench
   schemas byte for byte, and the gate rule holds at its edges. *)

open Bench_gate

(* Every committed baseline, with its bench id and the schemas of the
   rows it holds. *)
let files =
  [ ("micro", "BENCH_micro.json", [ table Micro.schema [] ]);
    ("macro", "BENCH_sim.json", [ table Macro.schema [] ]);
    ("net", "BENCH_net.json", [ table Net_bench.schema []; table Net_bench.overload_schema [] ]);
    ( "store",
      "BENCH_store.json",
      [ table Store_bench.append_schema []; table Store_bench.recovery_schema [] ] );
    ("verify", "BENCH_verify.json", [ table Verify_bench.schema [] ]) ]

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let round_trip () =
  List.iter
    (fun (id, file, tables) ->
      let path = Filename.concat ".." file in
      let text = In_channel.with_open_text path In_channel.input_all in
      let lines = String.split_on_char '\n' text in
      let rows = List.filter_map (fun l -> Option.map (fun r -> (l, r)) (parse_line l)) lines in
      Alcotest.(check bool) (file ^ " has rows") true (rows <> []);
      List.iter
        (fun (line, fields) ->
          let names t = List.map (fun c -> c.name) t.columns in
          match List.find_opt (fun t -> names t = List.map fst fields) tables with
          | None -> Alcotest.failf "%s: row matches no schema: %s" file line
          | Some t ->
            Alcotest.(check string)
              file
              (strip_comma (String.trim line))
              (row_json t.columns (List.map snd fields)))
        rows;
      (* and the whole file, as a run without --check-regressions writes it *)
      let baseline = read path in
      let again = List.map (fun t -> { t with rows = rows_of t.columns baseline }) tables in
      Alcotest.(check string) (file ^ " whole") text
        (to_string ~id ~header:(header_of lines) again))
    files

(* A table of (key, metric) rows whose metric is gated in [dir]. *)
let one dir = table [ str ~key:true "k" fst; float 1 "m" ~gate:dir snd ]

let baseline_of t =
  List.filter_map parse_line (String.split_on_char '\n' (to_string ~id:"t" [ t ]))

let gate ?absolute ~baseline current =
  verdict ~id:"t" ~file:"BENCH_t.json" ~baseline:(baseline_of baseline) ?absolute [ current ]

let passes dir ~base ~current =
  fst (gate ~baseline:(one dir [ ("a", base) ]) (one dir [ ("a", current) ]))

let tolerance () =
  let check name expected ok = Alcotest.(check bool) name expected ok in
  check "lower 1.99x passes" true (passes Lower_is_better ~base:100. ~current:199.);
  check "lower 2.01x fails" false (passes Lower_is_better ~base:100. ~current:201.);
  check "higher 1.99x passes" true (passes Higher_is_better ~base:199. ~current:100.);
  check "higher 2.01x fails" false (passes Higher_is_better ~base:201. ~current:100.);
  check "zero current fails" false (passes Higher_is_better ~base:100. ~current:0.);
  (* micro's 25 ns floor on ns_per_op *)
  let micro ns =
    table Micro.schema
      [ { Micro.name = "obs/counter-bump";
          ns_per_op = ns;
          mb_per_s = 0.;
          minor_words_per_op = 0. } ]
  in
  check "micro 2.5x slower but under 25 ns passes" true
    (fst (gate ~baseline:(micro 10.) (micro 25.)));
  check "micro 2.5x slower and over 25 ns fails" false
    (fst (gate ~baseline:(micro 20.) (micro 50.)))

let unmatched_and_missing () =
  let ok, _ =
    gate ~baseline:(one Lower_is_better [ ("a", 1.) ]) (one Lower_is_better [ ("b", 1000.) ])
  in
  Alcotest.(check bool) "row without a baseline row is skipped" true ok;
  let ok, lines =
    verdict ~id:"t" ~file:"BENCH_t.json" ~baseline:(read "BENCH_absent.json")
      [ one Lower_is_better [ ("a", 1.) ] ]
  in
  Alcotest.(check bool) "missing baseline fails" false ok;
  Alcotest.(check bool) "and names the file" true
    (List.exists (fun l -> contains l "BENCH_t.json") lines)

let verdict_line () =
  List.iter
    (fun (current, absolute) ->
      let ok, lines =
        gate ~absolute ~baseline:(one Lower_is_better [ ("a", 1.) ])
          (one Lower_is_better [ ("a", current) ])
      in
      let last = List.nth lines (List.length lines - 1) in
      (* the pattern scripts/ci.sh greps: ': (PASS|FAIL) ' *)
      Alcotest.(check bool) last true (contains last (if ok then "t: PASS " else "t: FAIL "));
      Alcotest.(check bool) (last ^ " names the worst") true (contains last "(worst k=a m"))
    [ (1.5, []); (3., []); (1., [ failure "k=a m" "broken invariant" ]) ]

let () =
  Alcotest.run "bench_gate"
    [ ( "bench_gate",
        [ Alcotest.test_case "committed baselines round-trip" `Quick round_trip;
          Alcotest.test_case "2x tolerance, floor and zero" `Quick tolerance;
          Alcotest.test_case "unmatched rows and missing baseline" `Quick unmatched_and_missing;
          Alcotest.test_case "verdict line" `Quick verdict_line ] ) ]

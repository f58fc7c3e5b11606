(* Unit and property tests for the measurement library. *)

open Sim

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf eps = Alcotest.(check (float eps))

(* -- Meter ------------------------------------------------------------------ *)

let test_meter_rate () =
  let m = Stats.Meter.create ~bin:(Sim_time.ms 100) () in
  (* 100 events/s for 10 s *)
  for i = 0 to 99 do
    Stats.Meter.add m ~at:(Sim_time.ms (i * 100)) 10
  done;
  checki "total" 1000 (Stats.Meter.total m);
  checkf 1.0 "steady rate" 100.
    (Stats.Meter.rate m ~from_:(Sim_time.s 2) ~until:(Sim_time.s 8));
  checki "window count" 100 (Stats.Meter.count_in m ~from_:(Sim_time.s 0) ~until:(Sim_time.ms 999))

let test_meter_empty_window () =
  let m = Stats.Meter.create () in
  Stats.Meter.add m ~at:Sim_time.zero 5;
  checkf 1e-9 "inverted window" 0. (Stats.Meter.rate m ~from_:(Sim_time.s 5) ~until:(Sim_time.s 5))

let test_meter_first_event () =
  let m = Stats.Meter.create ~bin:(Sim_time.ms 100) () in
  checkb "none" true (Stats.Meter.first_event m = None);
  Stats.Meter.add m ~at:(Sim_time.ms 250) 1;
  (match Stats.Meter.first_event m with
   | Some t -> Alcotest.(check int64) "bin start" (Sim_time.ms 200) t
   | None -> Alcotest.fail "expected first event")

(* -- Series ------------------------------------------------------------------ *)

let test_series () =
  let s = Stats.Series.create ~name:"tput" in
  Stats.Series.add s ~x:4. ~y:100.;
  Stats.Series.add s ~x:8. ~y:50.;
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "points" [ (4., 100.); (8., 50.) ] (Stats.Series.points s);
  checkb "y_at hit" true (Stats.Series.y_at s ~x:8. = Some 50.);
  checkb "y_at miss" true (Stats.Series.y_at s ~x:9. = None)

let test_series_render () =
  let a = Stats.Series.create ~name:"A" and b = Stats.Series.create ~name:"B" in
  Stats.Series.add a ~x:1. ~y:10.;
  Stats.Series.add a ~x:2. ~y:20.;
  Stats.Series.add b ~x:1. ~y:1.;
  let out = Stats.Series.render_table ~x_label:"n" [ a; b ] in
  checkb "has header" true (String.length out > 0);
  (* row for x=2 has a dash for the missing B value *)
  let lines = String.split_on_char '\n' out in
  checkb "missing rendered as dash" true
    (List.exists (fun l -> String.length l > 0 && l.[0] = '2' && String.contains l '-') lines)

(* -- Text table ------------------------------------------------------------------ *)

let test_text_table () =
  let out =
    Stats.Text_table.render ~headers:[ "n"; "throughput" ]
      [ [ "32"; "200000" ]; [ "600"; "99000" ] ]
  in
  let lines = String.split_on_char '\n' out in
  checki "rows + header + rule" 4 (List.length lines);
  checkb "aligned" true
    (String.length (List.nth lines 0) >= String.length "n  throughput")

let test_text_table_kv () =
  let out = Stats.Text_table.render_kv [ ("alpha", "2000"); ("k", "32") ] in
  checkb "two lines" true (List.length (String.split_on_char '\n' out) = 2)

let () =
  Alcotest.run "stats"
    [ ( "meter",
        [ Alcotest.test_case "rate" `Quick test_meter_rate;
          Alcotest.test_case "empty window" `Quick test_meter_empty_window;
          Alcotest.test_case "first event" `Quick test_meter_first_event ] );
      ( "series",
        [ Alcotest.test_case "points" `Quick test_series;
          Alcotest.test_case "render" `Quick test_series_render ] );
      ( "text table",
        [ Alcotest.test_case "render" `Quick test_text_table;
          Alcotest.test_case "kv" `Quick test_text_table_kv ] ) ]

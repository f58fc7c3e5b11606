(* Tests for the f + 1 commit accumulator shared by the baselines. *)

open Sim

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let batch id = Workload.Request.make ~id ~count:10 ~size_each:128 ~born:Sim_time.zero ()
let digest s = Crypto.Hash.of_string s
let at = Sim_time.ms 5

let test_conflicting_digests () =
  let t = Baseline.Tally.create ~f:1 in
  Baseline.Tally.commit t ~at ~height:1 ~digest:(digest "a") [];
  checkb "one digest is safe" true (Baseline.Tally.safety_ok t);
  Baseline.Tally.commit t ~at ~height:1 ~digest:(digest "a") [];
  Baseline.Tally.commit t ~at ~height:2 ~digest:(digest "b") [];
  checkb "same digest again is safe" true (Baseline.Tally.safety_ok t);
  Baseline.Tally.commit t ~at ~height:1 ~digest:(digest "b") [];
  checkb "second digest at a height is unsafe" false (Baseline.Tally.safety_ok t)

let test_fan_out_copy_counted_once () =
  let t = Baseline.Tally.create ~f:1 in
  let b = batch 7 in
  Baseline.Tally.offer t b;
  let commit height = Baseline.Tally.commit t ~at ~height ~digest:(digest (string_of_int height)) in
  commit 1 [ b ];
  commit 1 [ b ];
  checki "confirmed at f + 1" 10 (Baseline.Tally.confirmed t);
  (* The same batch, sent to a second replica, lands in a later height. *)
  commit 2 [ Workload.Request.resend_of b ];
  commit 2 [ Workload.Request.resend_of b ];
  checki "the copy is not counted again" 10 (Baseline.Tally.confirmed t);
  checki "both heights commit" 2 (Baseline.Tally.committed_heights t)

let test_f_plus_one_confirms () =
  let f = 2 in
  let t = Baseline.Tally.create ~f in
  let b = batch 1 in
  Baseline.Tally.offer t b;
  for _ = 1 to f do
    Baseline.Tally.commit t ~at ~height:1 ~digest:(digest "x") [ b ]
  done;
  checki "f executions do not confirm" 0 (Baseline.Tally.confirmed t);
  checki "no committed height yet" 0 (Baseline.Tally.committed_heights t);
  Baseline.Tally.commit t ~at ~height:1 ~digest:(digest "x") [ b ];
  checki "the (f + 1)-th does" 10 (Baseline.Tally.confirmed t);
  checki "one committed height" 1 (Baseline.Tally.committed_heights t);
  Baseline.Tally.commit t ~at ~height:1 ~digest:(digest "x") [ b ];
  checki "later executions change nothing" 10 (Baseline.Tally.confirmed t);
  checki "still one committed height" 1 (Baseline.Tally.committed_heights t)

let () =
  Alcotest.run "baseline"
    [ ( "tally",
        [ Alcotest.test_case "conflicting digests unsafe" `Quick test_conflicting_digests;
          Alcotest.test_case "fan-out copy counted once" `Quick test_fan_out_copy_counted_once;
          Alcotest.test_case "f + 1 executions confirm" `Quick test_f_plus_one_confirms ] ) ]

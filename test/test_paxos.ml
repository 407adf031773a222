(* Classic Paxos (message passing): agreement, validity, termination,
   crash tolerance up to a minority, leader failover, asynchrony. *)

open Rdma_consensus

let inputs_abc n = Array.init n (fun i -> Printf.sprintf "v%d" i)

let check_basic ?(ignore_pids = []) report ~inputs ~expect_all_of =
  Alcotest.(check bool) "agreement" true (Report.agreement_ok ~ignore_pids report);
  Alcotest.(check bool) "validity" true (Report.validity_ok ~ignore_pids report ~inputs);
  Alcotest.(check int) "all correct processes decide" expect_all_of
    (Report.decided_count report)

let test_no_failures () =
  let n = 3 in
  let inputs = inputs_abc n in
  let report = Paxos.run ~n ~inputs () in
  check_basic report ~inputs ~expect_all_of:n;
  (* The initial leader p0 wins with its own value. *)
  Alcotest.(check (option string)) "leader value chosen" (Some "v0")
    (Report.decision_value report)

let test_single_process () =
  let report = Paxos.run ~n:1 ~inputs:[| "solo" |] () in
  check_basic report ~inputs:[| "solo" |] ~expect_all_of:1

let test_five_processes () =
  let n = 5 in
  let inputs = inputs_abc n in
  let report = Paxos.run ~n ~inputs () in
  check_basic report ~inputs ~expect_all_of:n

let test_leader_decides_in_four_delays () =
  (* Classic Paxos: Prepare + Promise + Accept + Accepted = 4 delays. *)
  let n = 3 in
  let report = Paxos.run ~n ~inputs:(inputs_abc n) () in
  Alcotest.(check (option (float 0.0))) "leader decision at 4 delays" (Some 4.0)
    (Report.first_decision_time report)

let test_minority_crash () =
  let n = 5 in
  let inputs = inputs_abc n in
  (* crash two non-leaders immediately *)
  let faults =
    [ Fault.Crash_process { pid = 3; at = 0.0 }; Fault.Crash_process { pid = 4; at = 0.0 } ]
  in
  let report = Paxos.run ~n ~inputs ~faults () in
  Alcotest.(check bool) "agreement" true (Report.agreement_ok report);
  Alcotest.(check int) "three survivors decide" 3 (Report.decided_count report)

let test_leader_crash_failover () =
  let n = 3 in
  let inputs = inputs_abc n in
  (* p0 crashes before proposing anything useful; Ω repoints and a new
     leader drives its own value. *)
  let faults = [ Fault.Crash_process { pid = 0; at = 0.5 } ] in
  let report = Paxos.run ~n ~inputs ~faults () in
  Alcotest.(check bool) "agreement" true (Report.agreement_ok report);
  Alcotest.(check bool) "validity" true (Report.validity_ok report ~inputs);
  Alcotest.(check int) "two survivors decide" 2 (Report.decided_count report)

let test_leader_crash_mid_round () =
  (* Crash the leader between its phases at several cut points: safety
     must hold at every one; survivors must still decide. *)
  List.iter
    (fun at ->
      let n = 3 in
      let inputs = inputs_abc n in
      let faults = [ Fault.Crash_process { pid = 0; at } ] in
      let report = Paxos.run ~n ~inputs ~faults () in
      Alcotest.(check bool)
        (Printf.sprintf "agreement with leader crash at %.1f" at)
        true (Report.agreement_ok report);
      Alcotest.(check bool)
        (Printf.sprintf "survivors decide (crash at %.1f)" at)
        true
        (Report.decided_count report >= 2))
    [ 1.0; 2.0; 3.0; 3.5 ]

let test_no_quorum_blocks () =
  (* With a crashed majority, Paxos must not decide (n ≥ 2f+1 is tight). *)
  let n = 3 in
  let inputs = inputs_abc n in
  let faults =
    [ Fault.Crash_process { pid = 1; at = 0.0 }; Fault.Crash_process { pid = 2; at = 0.0 } ]
  in
  let report = Paxos.run ~n ~inputs ~faults () in
  Alcotest.(check int) "no decision without a quorum" 0 (Report.decided_count report)

let test_asynchronous_prefix () =
  (* Messages crawl before GST; Paxos must still decide afterwards (and
     never violate safety meanwhile). *)
  let n = 3 in
  let inputs = inputs_abc n in
  let faults = [ Fault.Async_until { gst = 30.0; extra = 25.0 } ] in
  let report = Paxos.run ~n ~inputs ~faults () in
  Alcotest.(check bool) "agreement" true (Report.agreement_ok report);
  Alcotest.(check int) "all decide after GST" n (Report.decided_count report)

let test_competing_leaders () =
  (* Ω flaps between p0 and p1 before settling: dueling proposers must
     not violate agreement. *)
  let n = 3 in
  let inputs = inputs_abc n in
  let faults =
    [
      Fault.Set_leader { pid = 1; at = 1.0 };
      Fault.Set_leader { pid = 0; at = 3.0 };
      Fault.Set_leader { pid = 1; at = 5.0 };
    ]
  in
  let report = Paxos.run ~n ~inputs ~faults () in
  Alcotest.(check bool) "agreement under dueling leaders" true (Report.agreement_ok report);
  Alcotest.(check bool) "validity" true (Report.validity_ok report ~inputs);
  Alcotest.(check int) "all decide" n (Report.decided_count report)

let test_deterministic_runs () =
  let n = 3 in
  let inputs = inputs_abc n in
  let r1 = Paxos.run ~seed:9 ~n ~inputs () in
  let r2 = Paxos.run ~seed:9 ~n ~inputs () in
  Alcotest.(check (option string)) "same value" (Report.decision_value r1)
    (Report.decision_value r2);
  Alcotest.(check (option (float 0.0))) "same timing" (Report.first_decision_time r1)
    (Report.first_decision_time r2);
  Alcotest.(check int) "same message count" r1.Report.messages r2.Report.messages

(* The ballot format every Paxos-family algorithm uses: each ballot has
   exactly one owner, and the owner and round come back out of it. *)
let test_ballot_owns () =
  for n = 1 to 7 do
    let seen = Hashtbl.create 512 in
    for round = 1 to 64 do
      for pid = 0 to n - 1 do
        let b = Paxos.ballot ~n ~round ~pid in
        if Hashtbl.mem seen b then Alcotest.failf "n=%d: ballot %d issued twice" n b;
        Hashtbl.add seen b ();
        Alcotest.(check int) "round comes back" round ((b - pid - 1) / n);
        for q = 0 to n - 1 do
          Alcotest.(check bool)
            (Printf.sprintf "n=%d: p%d owns ballot %d" n q b)
            (q = pid) (Paxos.owns ~n ~pid:q b)
        done
      done
    done;
    for pid = 0 to n - 1 do
      Alcotest.(check bool) "ballot 0 has no owner" false (Paxos.owns ~n ~pid 0)
    done
  done

let test_highest_accepted () =
  let check name expected reports =
    Alcotest.(check (option string)) name expected (Paxos.highest_accepted reports)
  in
  check "no reports" None [];
  check "nothing accepted: every report at ballot 0" None [ (0, ""); (0, "x"); (0, "y") ];
  check "clear maximum" (Some "c") [ (0, "a"); (4, "b"); (9, "c"); (7, "d") ];
  check "a tie goes to the earliest report" (Some "first")
    [ (2, "low"); (5, "first"); (5, "second") ]

let suite =
  [
    Alcotest.test_case "3 processes, no failures" `Quick test_no_failures;
    Alcotest.test_case "single process" `Quick test_single_process;
    Alcotest.test_case "5 processes" `Quick test_five_processes;
    Alcotest.test_case "leader decides in 4 delays" `Quick
      test_leader_decides_in_four_delays;
    Alcotest.test_case "minority crash tolerated" `Quick test_minority_crash;
    Alcotest.test_case "leader crash failover" `Quick test_leader_crash_failover;
    Alcotest.test_case "leader crash at phase boundaries" `Quick test_leader_crash_mid_round;
    Alcotest.test_case "majority crash blocks (bound is tight)" `Quick test_no_quorum_blocks;
    Alcotest.test_case "decides after asynchronous prefix" `Quick test_asynchronous_prefix;
    Alcotest.test_case "dueling leaders stay safe" `Quick test_competing_leaders;
    Alcotest.test_case "runs are deterministic" `Quick test_deterministic_runs;
    Alcotest.test_case "ballots: one owner each, round trip" `Quick test_ballot_owns;
    Alcotest.test_case "highest_accepted value rule" `Quick test_highest_accepted;
  ]

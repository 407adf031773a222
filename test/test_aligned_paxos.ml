(* Aligned Paxos (Section 5.2): tolerates any minority of the combined
   process+memory agent set, in both memory-agent modes. *)

open Rdma_consensus

let inputs n = Array.init n (fun i -> Printf.sprintf "v%d" i)

let disk_cfg = { Aligned_paxos.mode = Aligned_paxos.Disk }

let test_no_failures () =
  let n = 3 and m = 2 in
  let report = Aligned_paxos.run ~n ~m ~inputs:(inputs n) () in
  Alcotest.(check bool) "agreement" true (Report.agreement_ok report);
  Alcotest.(check bool) "validity" true (Report.validity_ok report ~inputs:(inputs n));
  Alcotest.(check int) "all decide" n (Report.decided_count report)

let test_disk_mode_no_failures () =
  let n = 3 and m = 2 in
  let report = Aligned_paxos.run ~cfg:disk_cfg ~n ~m ~inputs:(inputs n) () in
  Alcotest.(check bool) "agreement" true (Report.agreement_ok report);
  Alcotest.(check int) "all decide (disk mode)" n (Report.decided_count report)

let combined_minority_cases =
  (* (n, m, crashed processes, crashed memories): total agents 5, any 2
     may fail. *)
  [
    (3, 2, [ 1; 2 ], []);
    (3, 2, [ 1 ], [ 0 ]);
    (3, 2, [], [ 0; 1 ]);
    (2, 3, [ 1 ], [ 0; 2 ]) (* 5 agents, 3 failures would block; here 3? no: 1+2=3 > minority — skip *);
  ]

let test_combined_minority () =
  List.iter
    (fun (n, m, crash_ps, crash_ms) ->
      let total = n + m in
      let failures = List.length crash_ps + List.length crash_ms in
      if failures <= (total - 1) / 2 && not (List.mem 0 crash_ps && n = 1) then begin
        let faults =
          List.map (fun pid -> Fault.Crash_process { pid; at = 0.0 }) crash_ps
          @ List.map (fun mid -> Fault.Crash_memory { mid; at = 0.0 }) crash_ms
        in
        let report = Aligned_paxos.run ~n ~m ~inputs:(inputs n) ~faults () in
        Alcotest.(check bool)
          (Fmt.str "agreement n=%d m=%d kill p%a mu%a" n m
             Fmt.(list ~sep:comma int) crash_ps
             Fmt.(list ~sep:comma int) crash_ms)
          true (Report.agreement_ok report);
        Alcotest.(check bool)
          (Fmt.str "some survivor decides (n=%d m=%d)" n m)
          true
          (Report.decided_count report >= 1)
      end)
    combined_minority_cases

let test_majority_agents_dead_blocks () =
  (* 5 agents; kill 3 (1 process + 2 memories): must block. *)
  let n = 3 and m = 2 in
  let faults =
    [
      Fault.Crash_process { pid = 1; at = 0.0 };
      Fault.Crash_process { pid = 2; at = 0.0 };
      Fault.Crash_memory { mid = 0; at = 0.0 };
    ]
  in
  let report = Aligned_paxos.run ~n ~m ~inputs:(inputs n) ~faults () in
  Alcotest.(check int) "no decision without combined majority" 0
    (Report.decided_count report)

let test_memories_as_ballast () =
  (* n = 2 processes, m = 3 memories: both processes may be outvoted by
     memories — kill one process AND one memory (2 of 5 agents). *)
  let n = 2 and m = 3 in
  let faults =
    [ Fault.Crash_process { pid = 1; at = 0.0 }; Fault.Crash_memory { mid = 2; at = 0.0 } ]
  in
  let report = Aligned_paxos.run ~n ~m ~inputs:(inputs n) ~faults () in
  Alcotest.(check bool) "survivor decides" true (Report.decided_count report >= 1);
  Alcotest.(check bool) "validity" true (Report.validity_ok report ~inputs:(inputs n))

let test_leader_crash_failover () =
  let n = 3 and m = 2 in
  let faults = [ Fault.Crash_process { pid = 0; at = 3.0 } ] in
  let report = Aligned_paxos.run ~n ~m ~inputs:(inputs n) ~faults () in
  Alcotest.(check bool) "agreement" true (Report.agreement_ok report);
  Alcotest.(check bool) "survivors decide" true (Report.decided_count report >= 2)

let test_leader_crash_sweep_disk_mode () =
  List.iter
    (fun at ->
      let n = 3 and m = 2 in
      let faults = [ Fault.Crash_process { pid = 0; at } ] in
      let report = Aligned_paxos.run ~cfg:disk_cfg ~n ~m ~inputs:(inputs n) ~faults () in
      Alcotest.(check bool)
        (Printf.sprintf "agreement (disk mode, crash at %.1f)" at)
        true (Report.agreement_ok report);
      Alcotest.(check bool)
        (Printf.sprintf "validity (disk mode, crash at %.1f)" at)
        true
        (Report.validity_ok report ~inputs:(inputs n)))
    [ 1.0; 2.0; 3.0; 5.0; 7.0 ]

let test_permission_mode_faster_than_disk_mode () =
  (* The ablation: permissions save the phase-2 read-back. *)
  let n = 3 and m = 2 in
  let rp = Aligned_paxos.run ~n ~m ~inputs:(inputs n) () in
  let rd = Aligned_paxos.run ~cfg:disk_cfg ~n ~m ~inputs:(inputs n) () in
  match (Report.first_decision_time rp, Report.first_decision_time rd) with
  | Some tp, Some td ->
      Alcotest.(check bool)
        (Printf.sprintf "permissions (%.1f) at least as fast as disk (%.1f)" tp td)
        true (tp <= td)
  | _ -> Alcotest.fail "one of the runs did not decide"

let suite =
  [
    Alcotest.test_case "no failures" `Quick test_no_failures;
    Alcotest.test_case "disk mode: no failures" `Quick test_disk_mode_no_failures;
    Alcotest.test_case "combined minority crashes tolerated" `Quick test_combined_minority;
    Alcotest.test_case "combined majority crash blocks" `Quick
      test_majority_agents_dead_blocks;
    Alcotest.test_case "memories count as agents" `Quick test_memories_as_ballast;
    Alcotest.test_case "leader crash failover" `Quick test_leader_crash_failover;
    Alcotest.test_case "disk-mode leader crash sweep" `Quick
      test_leader_crash_sweep_disk_mode;
    Alcotest.test_case "permissions beat read-back (ablation)" `Quick
      test_permission_mode_faster_than_disk_mode;
  ]

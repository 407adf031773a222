(* Robust Backup (Theorem 4.4): weak Byzantine agreement with
   n ≥ 2fP + 1 processes and m ≥ 2fM + 1 memories. *)

open Rdma_consensus

let inputs n = Array.init n (fun i -> Printf.sprintf "v%d" i)

let check ?(ignore_pids = []) (report, byz) ~inputs ~min_decide =
  let ignore_pids = ignore_pids @ byz in
  Alcotest.(check bool) "agreement" true (Report.agreement_ok ~ignore_pids report);
  Alcotest.(check bool) "validity" true (Report.validity_ok ~ignore_pids report ~inputs);
  Alcotest.(check bool)
    (Printf.sprintf "at least %d decide" min_decide)
    true
    (Report.decided_count report >= min_decide)

let test_no_failures () =
  let n = 3 and m = 3 in
  let result = Robust_backup.run ~n ~m ~inputs:(inputs n) () in
  check result ~inputs:(inputs n) ~min_decide:n

let test_crash_failure () =
  let n = 3 and m = 3 in
  let faults = [ Fault.Crash_process { pid = 2; at = 5.0 } ] in
  let result = Robust_backup.run ~n ~m ~inputs:(inputs n) ~faults () in
  check result ~inputs:(inputs n) ~min_decide:2

let test_leader_crash () =
  let n = 3 and m = 3 in
  let faults = [ Fault.Crash_process { pid = 0; at = 10.0 } ] in
  let result = Robust_backup.run ~n ~m ~inputs:(inputs n) ~faults () in
  check result ~inputs:(inputs n) ~min_decide:2

let test_memory_crashes () =
  let n = 3 and m = 5 in
  let faults =
    [ Fault.Crash_memory { mid = 0; at = 0.0 }; Fault.Crash_memory { mid = 2; at = 8.0 } ]
  in
  let result = Robust_backup.run ~n ~m ~inputs:(inputs n) ~faults () in
  check result ~inputs:(inputs n) ~min_decide:n

let test_silent_byzantine () =
  (* n = 2f+1 = 3 with one silent Byzantine process: the two correct
     processes must still decide (the translation turns Byzantine into
     crash, and Paxos tolerates one crash). *)
  let n = 3 and m = 3 in
  let byzantine = [ (2, fun _ctx -> ()) ] in
  let result = Robust_backup.run ~n ~m ~inputs:(inputs n) ~byzantine () in
  check result ~inputs:(inputs n) ~min_decide:2

let test_fabricated_promise_contained () =
  (* A Byzantine process sends a Promise citing an acceptance that never
     happened; the replay validator convicts it and the correct
     processes decide without it. *)
  let n = 3 and m = 3 in
  let byzantine = [ (1, Attacks.rb_fabricated_promise ~ballot:1 ~value:"forged") ] in
  let (report, byz) = Robust_backup.run ~n ~m ~inputs:(inputs n) ~byzantine () in
  check (report, byz) ~inputs:(inputs n) ~min_decide:2;
  Alcotest.(check bool) "forged value never decided" true
    (Report.decision_value report <> Some "forged")

let test_spurious_decide_contained () =
  (* A Byzantine process broadcasts Decide("evil") with no quorum behind
     it: the validator rejects it, so no correct process adopts it. *)
  let n = 3 and m = 3 in
  let byzantine = [ (1, Attacks.rb_spurious_decide ~value:"evil") ] in
  let (report, byz) = Robust_backup.run ~n ~m ~inputs:(inputs n) ~byzantine () in
  check (report, byz) ~inputs:(inputs n) ~min_decide:2;
  Alcotest.(check bool) "evil value never decided" true
    (Report.decision_value report <> Some "evil")

let test_spurious_decide_without_validator () =
  (* Ablation: with history validation off, the same attack succeeds in
     planting its value — showing the validator is load-bearing. *)
  let n = 3 and m = 3 in
  let cfg = { Robust_backup.default_config with validate = false } in
  let byzantine = [ (1, Attacks.rb_spurious_decide ~value:"evil") ] in
  let (report, _) = Robust_backup.run ~cfg ~n ~m ~inputs:(inputs n) ~byzantine () in
  Alcotest.(check (option string)) "unvalidated run swallows the fake decide"
    (Some "evil")
    (Report.decision_value report)

let test_unjustified_accept_contained () =
  (* An Accept with no Prepare and no promise quorum behind it must be
     convicted before any acceptor acts on it. *)
  let n = 3 and m = 3 in
  let byzantine = [ (2, Attacks.rb_unjustified_accept ~ballot:9 ~value:"smuggled") ] in
  let (report, byz) = Robust_backup.run ~n ~m ~inputs:(inputs n) ~byzantine () in
  check (report, byz) ~inputs:(inputs n) ~min_decide:2;
  Alcotest.(check bool) "smuggled value never decided" true
    (Report.decision_value report <> Some "smuggled")

let test_double_promise_convicted () =
  (* A second promise for the same ballot cannot be justified by any
     correct replay (the first one raised minProposal): the equivocating
     acceptor is convicted and the run still decides. *)
  let n = 3 and m = 3 in
  let byzantine = [ (1, Attacks.rb_double_promise) ] in
  let result = Robust_backup.run ~n ~m ~inputs:(inputs n) ~byzantine () in
  check result ~inputs:(inputs n) ~min_decide:2

let test_no_false_convictions () =
  (* The replay validator must never convict an honest process: run a
     fault-free instance and check every pairwise conviction flag.  (A
     false positive could hide behind a still-successful run, so we check
     the flags directly.) *)
  let open Rdma_mm in
  let open Rdma_sim in
  let n = 3 and m = 3 in
  let cluster : string Cluster.t = Cluster.create ~n ~m () in
  Robust_backup.setup_regions cluster ();
  let handles = Array.make n None in
  for pid = 0 to n - 1 do
    Cluster.spawn cluster ~pid (fun ctx ->
        handles.(pid) <-
          Some (Robust_backup.attach ctx ~input:(Printf.sprintf "v%d" pid) ()))
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Array.iteri
    (fun pid h ->
      match h with
      | None -> Alcotest.failf "p%d has no handle" pid
      | Some h ->
          Alcotest.(check bool)
            (Printf.sprintf "p%d decided" pid)
            true
            (Ivar.is_full h.Robust_backup.decision);
          for peer = 0 to n - 1 do
            Alcotest.(check bool)
              (Printf.sprintf "p%d did not convict honest p%d" pid peer)
              false
              (Trusted.is_convicted h.Robust_backup.transport.trusted peer)
          done)
    handles

let test_asynchronous_prefix () =
  (* Weak Byzantine agreement keeps its safety through an asynchronous
     prefix and terminates after GST. *)
  let n = 3 and m = 3 in
  let faults = [ Fault.Async_until { gst = 60.0; extra = 20.0 } ] in
  let result = Robust_backup.run ~n ~m ~inputs:(inputs n) ~faults () in
  check result ~inputs:(inputs n) ~min_decide:n

let test_five_processes_two_byzantine () =
  let n = 5 and m = 3 in
  let byzantine =
    [ (3, fun _ctx -> ()); (4, Attacks.rb_spurious_decide ~value:"evil") ]
  in
  let result = Robust_backup.run ~n ~m ~inputs:(inputs n) ~byzantine () in
  check result ~inputs:(inputs n) ~min_decide:3

let suite =
  [
    Alcotest.test_case "no failures" `Quick test_no_failures;
    Alcotest.test_case "follower crash" `Quick test_crash_failure;
    Alcotest.test_case "leader crash" `Quick test_leader_crash;
    Alcotest.test_case "memory crashes tolerated" `Quick test_memory_crashes;
    Alcotest.test_case "silent Byzantine at n=2f+1" `Quick test_silent_byzantine;
    Alcotest.test_case "fabricated promise convicted" `Quick
      test_fabricated_promise_contained;
    Alcotest.test_case "spurious decide rejected" `Quick test_spurious_decide_contained;
    Alcotest.test_case "validator is load-bearing (ablation)" `Quick
      test_spurious_decide_without_validator;
    Alcotest.test_case "no false convictions of honest processes" `Quick
      test_no_false_convictions;
    Alcotest.test_case "unjustified accept convicted" `Quick
      test_unjustified_accept_contained;
    Alcotest.test_case "double promise convicted" `Quick test_double_promise_convicted;
    Alcotest.test_case "asynchronous prefix" `Quick test_asynchronous_prefix;
    Alcotest.test_case "n=5 with two Byzantine" `Slow test_five_processes_two_byzantine;
  ]

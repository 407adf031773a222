(* Fast & Robust (Theorem 4.9): weak Byzantine agreement, n ≥ 2fP + 1,
   m ≥ 2fM + 1, 2-deciding in common executions; the composition lemma
   (4.8) under attacks and crashes. *)

open Rdma_consensus

let inputs n = Array.init n (fun i -> Printf.sprintf "v%d" i)

let check ?(extra_ignore = []) (report, byz, _cluster) ~inputs ~min_decide =
  let ignore_pids = byz @ extra_ignore in
  Alcotest.(check bool) "agreement" true (Report.agreement_ok ~ignore_pids report);
  Alcotest.(check bool) "validity among correct" true
    (Report.validity_ok ~ignore_pids report ~inputs);
  Alcotest.(check bool)
    (Printf.sprintf "at least %d decide" min_decide)
    true
    (Report.decided_count report >= min_decide)

let test_common_case_two_deciding () =
  let n = 3 and m = 3 in
  let ((report, _, _) as result) = Fast_robust.run ~n ~m ~inputs:(inputs n) () in
  check result ~inputs:(inputs n) ~min_decide:n;
  Alcotest.(check (option (float 0.0))) "2-deciding" (Some 2.0)
    (Report.first_decision_time report);
  Alcotest.(check (option string)) "leader's value decided" (Some "v0")
    (Report.decision_value report)

let test_one_signature_fast_decision () =
  (* Followers are correct but arbitrarily slow (they take no steps), so
     the signature counter at the fast decision isolates the leader's
     fast path: exactly one signature (Section 4.2). *)
  let n = 3 and m = 3 in
  let byzantine = [ (1, fun _ -> ()); (2, fun _ -> ()) ] in
  let report, _, _ = Fast_robust.run ~n ~m ~inputs:(inputs n) ~byzantine () in
  Alcotest.(check int) "one signature at the fast decision" 1
    (Report.named report "sigs_at_fast_decision")

let test_five_processes () =
  let n = 5 and m = 3 in
  let ((report, _, _) as result) = Fast_robust.run ~n ~m ~inputs:(inputs n) () in
  check result ~inputs:(inputs n) ~min_decide:n;
  Alcotest.(check (option (float 0.0))) "still 2-deciding at n=5" (Some 2.0)
    (Report.first_decision_time report)

let test_silent_byzantine_leader () =
  (* f = 1 Byzantine leader that proposes nothing: the fast path aborts
     and Preferential Paxos decides for the correct processes. *)
  let n = 3 and m = 3 in
  let byzantine = [ (0, Attacks.cq_silent_leader) ] in
  (* liveness requires Ω to eventually trust a correct process *)
  let faults = [ Fault.Set_leader { pid = 1; at = 0.0 } ] in
  let ((report, _, _) as result) =
    Fast_robust.run ~n ~m ~inputs:(inputs n) ~byzantine ~faults ()
  in
  check result ~inputs:(inputs n) ~min_decide:2;
  (* the decision must be a correct process's input *)
  match Report.decision_value report with
  | Some v -> Alcotest.(check bool) "correct input decided" true (v = "v1" || v = "v2")
  | None -> Alcotest.fail "no decision"

let test_equivocating_byzantine_leader () =
  let n = 3 and m = 3 in
  let byzantine = [ (0, Attacks.cq_equivocating_leader ~v1:"black" ~v2:"white") ] in
  let faults = [ Fault.Set_leader { pid = 1; at = 0.0 } ] in
  let ((report, _, _) as result) =
    Fast_robust.run ~n ~m ~inputs:(inputs n) ~byzantine ~faults ()
  in
  check result ~inputs:(inputs n) ~min_decide:2;
  match Report.decision_value report with
  | Some v ->
      Alcotest.(check bool) "equivocator's values never decided" true
        (v <> "black" && v <> "white")
  | None -> Alcotest.fail "no decision"

let test_byzantine_follower () =
  (* A Byzantine follower disrupts the unanimity proof chase; the leader
     still decides at 2 delays, and the composition lemma forces the
     backup to agree with it. *)
  let n = 3 and m = 3 in
  let byzantine = [ (2, Attacks.cq_early_revoker) ] in
  let report, byz, _ = Fast_robust.run ~n ~m ~inputs:(inputs n) ~byzantine () in
  Alcotest.(check bool) "agreement among correct" true
    (Report.agreement_ok ~ignore_pids:byz report);
  Alcotest.(check bool) "both correct processes decide" true
    (Report.decided_count report >= 2)

let test_composition_lemma_sweep () =
  (* Lemma 4.8: crash a follower at various points around the fast path;
     whenever the leader (or any correct process) decided in Cheap
     Quorum, the final decisions all equal that value. *)
  List.iter
    (fun at ->
      let n = 3 and m = 3 in
      let faults = [ Fault.Crash_process { pid = 2; at } ] in
      let report, _, _ = Fast_robust.run ~n ~m ~inputs:(inputs n) ~faults () in
      Alcotest.(check bool)
        (Printf.sprintf "agreement (follower crash at %.1f)" at)
        true (Report.agreement_ok report);
      (match report.Report.decisions.(0) with
      | Some d ->
          Alcotest.(check string)
            (Printf.sprintf "fast-path value survives composition (crash at %.1f)" at)
            "v0" d.Report.value
      | None -> ());
      Alcotest.(check bool)
        (Printf.sprintf "survivors decide (crash at %.1f)" at)
        true
        (Report.decided_count report >= 2))
    [ 0.5; 1.0; 1.5; 2.0; 3.0; 5.0 ]

let test_leader_crash_after_fast_decision () =
  (* The leader decides at 2.0 and crashes: everyone else must decide
     v0 through the backup path (or late fast path). *)
  let n = 3 and m = 3 in
  let faults = [ Fault.Crash_process { pid = 0; at = 2.5 } ] in
  let report, _, _ = Fast_robust.run ~n ~m ~inputs:(inputs n) ~faults () in
  Alcotest.(check bool) "agreement" true (Report.agreement_ok report);
  Array.iteri
    (fun pid d ->
      match d with
      | Some d ->
          Alcotest.(check string)
            (Printf.sprintf "p%d decides the fast value" pid)
            "v0" d.Report.value
      | None -> ())
    report.Report.decisions;
  Alcotest.(check bool) "survivors decide" true (Report.decided_count report >= 2)

let test_memory_crashes () =
  let n = 3 and m = 5 in
  let faults =
    [ Fault.Crash_memory { mid = 0; at = 0.0 }; Fault.Crash_memory { mid = 2; at = 0.0 } ]
  in
  let ((report, _, _) as result) = Fast_robust.run ~n ~m ~inputs:(inputs n) ~faults () in
  check result ~inputs:(inputs n) ~min_decide:n;
  Alcotest.(check (option (float 0.0))) "still 2-deciding with 3/5 memories" (Some 2.0)
    (Report.first_decision_time report)

let test_byzantine_plus_memory_crash () =
  let n = 3 and m = 3 in
  let byzantine = [ (2, Attacks.cq_silent_leader) ] in
  let faults = [ Fault.Crash_memory { mid = 1; at = 0.0 } ] in
  let result = Fast_robust.run ~n ~m ~inputs:(inputs n) ~byzantine ~faults () in
  check result ~inputs:(inputs n) ~min_decide:2

let test_seed_sweep_agreement () =
  List.iter
    (fun seed ->
      let n = 3 and m = 3 in
      let byzantine = [ (1, Attacks.pp_priority_liar ~value:"liar") ] in
      let report, byz, _ =
        Fast_robust.run ~seed ~n ~m ~inputs:(inputs n) ~byzantine ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "agreement under priority liar (seed %d)" seed)
        true
        (Report.agreement_ok ~ignore_pids:byz report);
      match Report.decision_value report with
      | Some v ->
          Alcotest.(check bool)
            (Printf.sprintf "liar value never decided (seed %d)" seed)
            true (v <> "liar")
      | None -> Alcotest.fail "no decision")
    [ 1; 2; 3 ]

let test_silent_leader_handoffs () =
  (* Figure 6's run (bench f6): the leader stays silent, so each correct
     process aborts Cheap Quorum with its own bare value and hands it to
     Preferential Paxos — one fr.handoff event per correct process. *)
  let open Rdma_obs in
  let n = 3 and m = 3 in
  let cq = { Cheap_quorum.default_config with fast_timeout = 40.0 } in
  let cfg = { Fast_robust.default_config with cheap_quorum = cq } in
  let _, _, cluster =
    Fast_robust.run ~cfg ~n ~m ~inputs:(inputs n)
      ~byzantine:[ (0, Attacks.cq_silent_leader) ]
      ~faults:[ Fault.Set_leader { pid = 1; at = 0.0 } ]
      ~prepare:(fun c -> Obs.set_recording (Rdma_mm.Cluster.obs c) true)
      ()
  in
  let handoffs =
    List.filter_map
      (function
        | _, actor, Event.Custom { name; detail }
          when name = Fast_robust.handoff_event ->
            Some (actor, detail)
        | _ -> None)
      (Obs.events (Rdma_mm.Cluster.obs cluster))
  in
  Alcotest.(check (list string)) "one hand-off each from p1 and p2"
    [ "p1"; "p2" ] (List.map fst handoffs);
  List.iter
    (fun (actor, detail) ->
      Alcotest.(check bool) (actor ^ " aborts Cheap Quorum") true
        (String.starts_with ~prefix:"cheap-quorum ABORT -> preferential-paxos "
           detail);
      Alcotest.(check bool) (actor ^ " hands off a bare value") true
        (String.ends_with ~suffix:" class=B" detail))
    handoffs

let suite =
  [
    Alcotest.test_case "common case decides in 2 delays" `Quick
      test_common_case_two_deciding;
    Alcotest.test_case "one signature on the fast path" `Quick
      test_one_signature_fast_decision;
    Alcotest.test_case "n=5 common case" `Quick test_five_processes;
    Alcotest.test_case "silent Byzantine leader" `Quick test_silent_byzantine_leader;
    Alcotest.test_case "silent leader: two ABORT hand-offs" `Quick
      test_silent_leader_handoffs;
    Alcotest.test_case "equivocating Byzantine leader" `Quick
      test_equivocating_byzantine_leader;
    Alcotest.test_case "Byzantine follower contained" `Quick test_byzantine_follower;
    Alcotest.test_case "composition lemma crash sweep" `Slow test_composition_lemma_sweep;
    Alcotest.test_case "leader crash after fast decision" `Quick
      test_leader_crash_after_fast_decision;
    Alcotest.test_case "memory crashes tolerated" `Quick test_memory_crashes;
    Alcotest.test_case "Byzantine + memory crash" `Quick test_byzantine_plus_memory_crash;
    Alcotest.test_case "priority liar seed sweep" `Slow test_seed_sweep_agreement;
  ]

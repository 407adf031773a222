(* Larger configurations: the bounds hold as n and m grow. *)

open Rdma_consensus

let inputs n = Array.init n (fun i -> Printf.sprintf "v%d" i)

let test_fast_robust_n7_f3 () =
  (* n = 2f+1 = 7 with three Byzantine processes (one silent, one
     priority liar, one permission revoker): the four correct processes
     agree on a correct input. *)
  let n = 7 and m = 3 in
  let byzantine =
    [
      (4, fun _ -> ());
      (5, Attacks.pp_priority_liar ~value:"liar");
      (6, Attacks.cq_early_revoker);
    ]
  in
  let report, byz, _ = Fast_robust.run ~n ~m ~inputs:(inputs n) ~byzantine () in
  Alcotest.(check bool) "agreement among 4 correct" true
    (Report.agreement_ok ~ignore_pids:byz report);
  Alcotest.(check bool) "validity among correct" true
    (Report.validity_ok ~ignore_pids:byz report ~inputs:(inputs n));
  Alcotest.(check bool) "correct majority decides" true
    (Report.decided_count report >= 4)

let test_pmp_n6_five_crashes () =
  (* n ≥ f+1 at scale: six processes, five crash, the lone survivor
     decides. *)
  let n = 6 and m = 5 in
  let faults =
    List.init 5 (fun i -> Fault.Crash_process { pid = i; at = 0.2 *. float_of_int i })
  in
  let report = Protected_paxos.run ~n ~m ~inputs:(inputs n) ~faults () in
  Alcotest.(check bool) "agreement" true (Report.agreement_ok report);
  Alcotest.(check bool) "lone survivor decides" true (Report.decided_count report >= 1);
  Alcotest.(check bool) "validity" true (Report.validity_ok report ~inputs:(inputs n))

let test_aligned_large_mixed () =
  (* 5 processes + 5 memories = 10 agents; kill 4 (2 of each): decides. *)
  let n = 5 and m = 5 in
  let faults =
    [
      Fault.Crash_process { pid = 3; at = 0.0 };
      Fault.Crash_process { pid = 4; at = 0.0 };
      Fault.Crash_memory { mid = 0; at = 0.0 };
      Fault.Crash_memory { mid = 4; at = 0.0 };
    ]
  in
  let report = Aligned_paxos.run ~n ~m ~inputs:(inputs n) ~faults () in
  Alcotest.(check bool) "agreement" true (Report.agreement_ok report);
  Alcotest.(check bool) "decides with 6/10 agents" true (Report.decided_count report >= 1)

let test_disk_paxos_many_disks () =
  let n = 3 and m = 9 in
  let faults = List.init 4 (fun mid -> Fault.Crash_memory { mid; at = 0.0 }) in
  let report = Disk_paxos.run ~n ~m ~inputs:(inputs n) ~faults () in
  Alcotest.(check bool) "agreement with 5/9 disks" true (Report.agreement_ok report);
  Alcotest.(check bool) "decides" true (Report.decided_count report >= 1)

let test_neb_liveness_under_reader_crash () =
  (* Property 1 liveness: a crashed *reader* must not prevent the others
     from delivering a correct broadcaster's message. *)
  let open Rdma_mm in
  let open Rdma_sim in
  let n = 4 and m = 3 in
  let cluster : string Cluster.t = Cluster.create ~n ~m () in
  let cfg = { Neb.default_config with give_up_at = 200.0; poll_interval = 1.0 } in
  Neb.setup_regions cluster ~max_seq:cfg.Neb.max_seq ();
  let delivered = Array.make n false in
  for pid = 0 to n - 1 do
    Cluster.spawn cluster ~pid (fun ctx ->
        let neb =
          Neb.create ctx ~cfg
            ~deliver:(fun ~k:_ ~msg:_ ~src -> if src = 0 then delivered.(pid) <- true)
            ()
        in
        Neb.spawn_poller ctx neb;
        if pid = 0 then begin
          Engine.sleep 3.0;
          Neb.broadcast neb "liveness"
        end)
  done;
  Fault.apply cluster [ Crash_process { pid = 3; at = 1.0 } ];
  Cluster.run cluster;
  Cluster.check_errors cluster;
  List.iter
    (fun pid ->
      Alcotest.(check bool)
        (Printf.sprintf "p%d delivers despite p3's crash" pid)
        true delivered.(pid))
    [ 0; 1; 2 ]

let suite =
  [
    Alcotest.test_case "fast-robust n=7, f=3 mixed Byzantine" `Slow
      test_fast_robust_n7_f3;
    Alcotest.test_case "protected-paxos n=6, five crashes" `Quick test_pmp_n6_five_crashes;
    Alcotest.test_case "aligned n=5,m=5, four agents dead" `Quick test_aligned_large_mixed;
    Alcotest.test_case "disk-paxos with nine disks" `Quick test_disk_paxos_many_disks;
    Alcotest.test_case "NEB liveness under reader crash" `Quick
      test_neb_liveness_under_reader_crash;
  ]

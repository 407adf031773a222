(* The heartbeat failure detector: convergence to the lowest-id correct
   process after GST, tolerance of the asynchronous prefix, and the
   full-machine crash fault. *)

open Rdma_sim
open Rdma_net
open Rdma_mm
open Rdma_consensus

let cfg = { Heartbeat_fd.default_config with run_until = 120.0 }

let run_fd_scenario ?(n = 4) ~crash () =
  let engine = Engine.create () in
  let net : unit Network.t = Network.create ~engine ~n () in
  let fds =
    Array.init n (fun pid ->
        Heartbeat_fd.spawn ~engine ~ep:(Network.endpoint net pid) ~n ~cfg ())
  in
  crash engine net;
  Engine.run engine;
  fds

let test_all_correct_converge_on_p0 () =
  let fds = run_fd_scenario ~crash:(fun _ _ -> ()) () in
  Array.iteri
    (fun pid fd ->
      Alcotest.(check int)
        (Printf.sprintf "p%d trusts p0" pid)
        0
        (Heartbeat_fd.leader fd))
    fds

let test_leader_silence_detected () =
  (* p0's heartbeats stop at t=20 (we model its crash by partitioning it
     away); everyone else must converge on p1. *)
  let fds =
    run_fd_scenario
      ~crash:(fun engine net ->
        Engine.schedule engine 20.0 (fun () ->
            Network.partition net
              (List.concat_map (fun dst -> [ (0, dst) ]) [ 1; 2; 3 ])))
      ()
  in
  List.iter
    (fun pid ->
      Alcotest.(check int)
        (Printf.sprintf "p%d repoints to p1" pid)
        1
        (Heartbeat_fd.leader fds.(pid));
      Alcotest.(check bool)
        (Printf.sprintf "p%d suspects p0" pid)
        true
        (Heartbeat_fd.suspects fds.(pid) 0))
    [ 1; 2; 3 ]

let test_asynchronous_prefix_recovers () =
  (* Messages crawl before GST=40 — suspicions fly — but after GST every
     correct process must re-trust p0. *)
  let fds =
    run_fd_scenario
      ~crash:(fun _engine net ->
        Network.set_gst net ~at:40.0 ~extra:(fun ~src:_ ~dst:_ ~now:_ -> 15.0))
      ()
  in
  Array.iteri
    (fun pid fd ->
      Alcotest.(check int)
        (Printf.sprintf "p%d trusts p0 after GST" pid)
        0
        (Heartbeat_fd.leader fd))
    fds;
  (* and the history shows a wrong leader before GST for some process *)
  let saw_wrong =
    Array.exists
      (fun fd -> List.exists (fun (_, l) -> l <> 0) (Heartbeat_fd.history fd))
      fds
  in
  Alcotest.(check bool) "pre-GST suspicion occurred" true saw_wrong

let test_machine_crash_fault () =
  (* Section 7: a full-system crash kills a process and its co-located
     memory at the same instant; the rest of the cluster continues. *)
  let n = 3 and m = 3 in
  let inputs = Array.init n (fun i -> Printf.sprintf "v%d" i) in
  let faults = [ Fault.Crash_machine { pid = 1; mid = 1; at = 0.5 } ] in
  let report = Protected_paxos.run ~n ~m ~inputs ~faults () in
  Alcotest.(check bool) "agreement" true (Report.agreement_ok report);
  Alcotest.(check bool) "survivors decide" true (Report.decided_count report >= 2);
  (* crashing the leader's machine too *)
  let faults = [ Fault.Crash_machine { pid = 0; mid = 2; at = 1.0 } ] in
  let report = Protected_paxos.run ~n ~m ~inputs ~faults () in
  Alcotest.(check bool) "agreement after leader machine crash" true
    (Report.agreement_ok report);
  Alcotest.(check bool) "survivors decide after leader machine crash" true
    (Report.decided_count report >= 2)

let suite =
  [
    Alcotest.test_case "all correct converge on p0" `Quick test_all_correct_converge_on_p0;
    Alcotest.test_case "silent leader detected and replaced" `Quick
      test_leader_silence_detected;
    Alcotest.test_case "asynchronous prefix recovers after GST" `Quick
      test_asynchronous_prefix_recovers;
    Alcotest.test_case "full-machine crash (Section 7)" `Quick test_machine_crash_fault;
  ]

(* Edge cases across the stack: simulator corner conditions, register
   namespaces, aligned-paxos value preservation, multi-instance and
   BFT-log properties under awkward schedules. *)

open Rdma_sim
open Rdma_consensus

(* {2 Simulator corners} *)

let test_cancel_then_fill () =
  (* A fiber cancelled while awaiting an ivar must not run when the ivar
     later fills. *)
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let resumed = ref false in
  let fiber =
    Engine.spawn eng "waiter" (fun () ->
        ignore (Ivar.await iv);
        resumed := true)
  in
  Engine.schedule eng 1.0 (fun () -> Engine.cancel fiber);
  Engine.schedule eng 2.0 (fun () -> Ivar.fill iv 42);
  Engine.run eng;
  Alcotest.(check bool) "cancelled waiter never resumes" false !resumed

let test_nested_spawn_cancellation () =
  (* Cancelling a parent does not implicitly cancel fibers it spawned
     through the raw engine API (the *cluster* wires that up per
     process); both behaviours are checked. *)
  let eng = Engine.create () in
  let child_ran = ref false in
  let parent =
    Engine.spawn eng "parent" (fun () ->
        ignore
          (Engine.spawn eng "child" (fun () ->
               Engine.sleep 5.0;
               child_ran := true));
        Engine.sleep 100.0)
  in
  Engine.schedule eng 1.0 (fun () -> Engine.cancel parent);
  Engine.run eng;
  Alcotest.(check bool) "raw child fiber survives parent cancel" true !child_ran

let test_cluster_crash_kills_subfibers () =
  let open Rdma_mm in
  let cluster : string Cluster.t = Cluster.create ~n:1 ~m:0 () in
  let sub_ran = ref false in
  Cluster.spawn cluster ~pid:0 (fun ctx ->
      ctx.Cluster.spawn_sub "late" (fun () ->
          Engine.sleep 5.0;
          sub_ran := true);
      Engine.sleep 100.0);
  Fault.apply cluster [ Crash_process { pid = 0; at = 1.0 } ];
  Cluster.run cluster;
  Alcotest.(check bool) "cluster sub-fiber dies with its process" false !sub_ran

let test_zero_delay_ordering () =
  (* Same-time events run in scheduling order, transitively through
     yield. *)
  let eng = Engine.create () in
  let log = Buffer.create 16 in
  ignore
    (Engine.spawn eng "a" (fun () ->
         Buffer.add_string log "a1;";
         Engine.yield ();
         Buffer.add_string log "a2;"));
  ignore
    (Engine.spawn eng "b" (fun () ->
         Buffer.add_string log "b1;";
         Engine.yield ();
         Buffer.add_string log "b2;"));
  Engine.run eng;
  Alcotest.(check string) "deterministic interleaving" "a1;b1;a2;b2;"
    (Buffer.contents log)

let test_mailbox_drain () =
  let box = Mailbox.create () in
  Mailbox.send box 1;
  Mailbox.send box 2;
  Mailbox.send box 3;
  Alcotest.(check (list int)) "drain returns FIFO" [ 1; 2; 3 ] (Mailbox.drain box);
  Alcotest.(check bool) "empty after drain" true (Mailbox.is_empty box)

(* {2 Degenerate cluster shapes} *)

let test_pmp_single_memory () =
  (* m = 1, fM = 0: legal (m ≥ 2·0+1); still 2-deciding. *)
  let report = Protected_paxos.run ~n:2 ~m:1 ~inputs:[| "a"; "b" |] () in
  Alcotest.(check (option (float 0.0))) "2-deciding with one memory" (Some 2.0)
    (Report.first_decision_time report);
  Alcotest.(check bool) "agreement" true (Report.agreement_ok report)

let test_paxos_large_cluster () =
  let n = 9 in
  let inputs = Array.init n (fun i -> Printf.sprintf "v%d" i) in
  let report = Paxos.run ~n ~inputs () in
  Alcotest.(check int) "n=9 all decide" n (Report.decided_count report);
  Alcotest.(check bool) "agreement" true (Report.agreement_ok report)

(* {2 Aligned Paxos decided-value preservation} *)

let test_aligned_value_survives_leader_crash () =
  (* The leader decides, then crashes before everyone learns; the next
     leader must decide the same value (read from memory slots or
     acceptor state). *)
  List.iter
    (fun at ->
      let n = 3 and m = 2 in
      let inputs = [| "first"; "second"; "third" |] in
      let faults = [ Fault.Crash_process { pid = 0; at } ] in
      let report = Aligned_paxos.run ~n ~m ~inputs ~faults () in
      Alcotest.(check bool)
        (Printf.sprintf "agreement (crash at %.1f)" at)
        true (Report.agreement_ok report);
      match report.Report.decisions.(0) with
      | Some d ->
          (* p0 decided before crashing: everyone else must match *)
          Array.iteri
            (fun pid d' ->
              match d' with
              | Some d' ->
                  Alcotest.(check string)
                    (Printf.sprintf "p%d preserves p0's decision (crash at %.1f)" pid at)
                    d.Report.value d'.Report.value
              | None -> ())
            report.Report.decisions
      | None -> ())
    [ 4.1; 4.5; 5.0 ]

(* {2 BFT log under reordering} *)

let test_bft_log_reordering () =
  let input_for ~pid ~slot = Printf.sprintf "c%d.%d" pid slot in
  let cfg = { Rdma_smr.Bft_log.default_config with slots = 2 } in
  let faults = [ Fault.Random_latency { min = 0.5; max = 2.5 } ] in
  let reports, _ = Rdma_smr.Bft_log.run ~cfg ~n:3 ~m:3 ~input_for ~faults () in
  Array.iteri
    (fun i report ->
      Alcotest.(check bool)
        (Printf.sprintf "agreement at slot %d under reordering" i)
        true (Report.agreement_ok report);
      Alcotest.(check bool)
        (Printf.sprintf "slot %d decided" i)
        true
        (Report.decided_count report >= 2))
    reports

(* {2 The run lifecycle} *)

(* A pid given a Byzantine behaviour runs it instead of the honest
   program, is listed by the cluster as Byzantine, and reads back None. *)
let test_lifecycle_byzantine_substitution () =
  let open Rdma_mm in
  let ran = ref [] in
  let cluster, results =
    Instance.run ~seed:1 ~n:3 ~m:0
      ~byzantine:[ (1, fun ctx -> ran := ("byz", ctx.Cluster.pid) :: !ran) ]
      ~spawn:(fun cluster pid ->
        Cluster.spawn cluster ~pid (fun _ -> ran := ("honest", pid) :: !ran);
        fun () -> pid)
      ()
  in
  Alcotest.(check (list (pair string int)))
    "each pid ran its own program"
    [ ("honest", 0); ("byz", 1); ("honest", 2) ]
    (List.rev !ran);
  Alcotest.(check (list int)) "byzantine pids" [ 1 ] (Cluster.byzantine_pids cluster);
  Alcotest.(check (array (option int)))
    "Byzantine pids read None" [| Some 0; None; Some 2 |] results

let test_lifecycle_rejects_wrong_inputs () =
  Alcotest.check_raises "paxos" (Invalid_argument "paxos: 2 inputs for 3 processes")
    (fun () -> ignore (Paxos.run ~n:3 ~inputs:[| "a"; "b" |] ()));
  Alcotest.check_raises "fast-robust"
    (Invalid_argument "fast-robust: 4 inputs for 3 processes") (fun () ->
      ignore (Fast_robust.run ~n:3 ~m:3 ~inputs:[| "a"; "b"; "c"; "d" |] ()))

(* A run's end discontinues the fibers it left suspended: pid 0 parks
   forever on an ivar nobody fills, inside a span and a [Fun.protect];
   its [finally] has run by the time [Instance.run] returns, also when
   another pid's error makes [Instance.run] raise. *)
let test_lifecycle_disposes_parked () =
  let open Rdma_mm in
  let run ~failing =
    let unwound = ref false in
    let spawn cluster pid =
      Cluster.spawn cluster ~pid (fun ctx ->
          if pid = 0 then
            Rdma_obs.Obs.with_span ctx.Cluster.ctx_obs ~actor:"p0" "parked"
              (fun () ->
                Fun.protect
                  ~finally:(fun () -> unwound := true)
                  (fun () -> ignore (Ivar.await (Ivar.create () : int Ivar.t))))
          else if failing then failwith "boom");
      fun () -> ()
    in
    let outcome =
      match Instance.run ~seed:1 ~n:2 ~m:0 ~spawn () with
      | _ -> "returned"
      | exception Failure msg -> msg
    in
    (outcome, !unwound)
  in
  Alcotest.(check (pair string bool))
    "clean run" ("returned", true) (run ~failing:false);
  Alcotest.(check (pair string bool))
    "fiber error re-raised"
    ("fiber p1 raised: Failure(\"boom\")", true)
    (run ~failing:true)

let suite =
  [
    Alcotest.test_case "lifecycle: Byzantine pid substitution" `Quick
      test_lifecycle_byzantine_substitution;
    Alcotest.test_case "lifecycle: |inputs| must be n" `Quick
      test_lifecycle_rejects_wrong_inputs;
    Alcotest.test_case "cancel-then-fill is inert" `Quick test_cancel_then_fill;
    Alcotest.test_case "raw fibers are independent" `Quick test_nested_spawn_cancellation;
    Alcotest.test_case "cluster crash kills sub-fibers" `Quick
      test_cluster_crash_kills_subfibers;
    Alcotest.test_case "deterministic zero-delay interleaving" `Quick
      test_zero_delay_ordering;
    Alcotest.test_case "mailbox drain" `Quick test_mailbox_drain;
    Alcotest.test_case "protected-paxos with a single memory" `Quick
      test_pmp_single_memory;
    Alcotest.test_case "paxos at n=9" `Quick test_paxos_large_cluster;
    Alcotest.test_case "aligned: decided value survives leader crash" `Quick
      test_aligned_value_survives_leader_crash;
    Alcotest.test_case "BFT log under reordering" `Slow test_bft_log_reordering;
    Alcotest.test_case "lifecycle: a run's end unwinds parked pids" `Quick
      test_lifecycle_disposes_parked;
  ]

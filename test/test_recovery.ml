(* Recovery & repair: the waiter-leak fix in the quorum combinators, and
   SMR checkpoint/state-transfer across memory and machine restarts. *)

open Rdma_sim
open Rdma_mem
open Rdma_mm
open Rdma_consensus
open Rdma_smr

(* ---------------- quorum waits ------------------------------------ *)

let test_abandoned_attempts_drop_waiters () =
  (* The leak fix: an abandoned quorum wait deregisters its callbacks
     from the ivars it was watching, so a long-running fiber retrying
     against dead memories does not accumulate waiters. *)
  let engine = Engine.create () in
  let ivars = Array.init 4 (fun _ -> Ivar.create ()) in
  ignore
    (Engine.spawn engine "waiter" (fun () ->
         for _ = 1 to 5 do
           ignore (Par.await_k_timeout ivars 4 2.0)
         done));
  Engine.run engine;
  Array.iteri
    (fun i iv ->
      Alcotest.(check int)
        (Printf.sprintf "ivar %d has no leaked waiters" i)
        0 (Ivar.waiter_count iv))
    ivars

(* ------------- SMR checkpoints, state transfer, rejoin ------------- *)

let smr_cfg =
  { Consensus_engine.default_config with
    replicas = 3; max_entries = 32; serve_until = 300.0; checkpoint_every = 3 }

let build_smr () =
  let cluster : string Cluster.t =
    Cluster.create ~legal_change:(Smr_log.legal_change smr_cfg)
      ~n:(smr_cfg.Consensus_engine.replicas + 1) ~m:3 ()
  in
  Smr_log.setup_regions cluster smr_cfg;
  let replicas =
    Array.init smr_cfg.Consensus_engine.replicas (fun pid ->
        Smr_log.spawn_replica cluster ~cfg:smr_cfg ~pid ())
  in
  let committed = ref 0 in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      for seq = 0 to 9 do
        match
          Smr_log.submit ctx ~cfg:smr_cfg ~seq
            ~cmd:(Printf.sprintf "cmd%d" seq)
            ~timeout:200.0
        with
        | Some _ -> incr committed
        | None -> ()
      done);
  (cluster, replicas, committed)

let check_logs_equal replicas =
  let logs = Array.map Smr_log.applied_entries replicas in
  Alcotest.(check bool) "replicas applied the same log" true
    (logs.(0) = logs.(1) && logs.(1) = logs.(2));
  logs.(0)

let test_smr_checkpoint_truncates_and_commits () =
  let cluster, replicas, committed = build_smr () in
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check int) "all commands committed" 10 !committed;
  Alcotest.(check int) "log fully applied" 10 (List.length (check_logs_equal replicas));
  Alcotest.(check bool) "checkpoints were written" true
    (Rdma_obs.Obs.counter (Cluster.obs cluster) "smr.checkpoints" >= 3)

let test_smr_repairs_restarted_memory () =
  let cluster, replicas, committed = build_smr () in
  Fault.apply cluster
    [
      Fault.Crash_memory { mid = 1; at = 20.0 };
      Fault.Recover_memory { mid = 1; at = 40.0 };
    ];
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check int) "all commands committed across the outage" 10 !committed;
  ignore (check_logs_equal replicas);
  Alcotest.(check bool) "leader transferred state to the rejoiner" true
    (Rdma_obs.Obs.counter (Cluster.obs cluster) "smr.repairs" >= 1);
  Alcotest.(check (list string)) "rejoined memory fully re-replicated" []
    (Memory.stale_registers (Cluster.memory cluster 1) ~region:Smr_log.region)

let test_smr_machine_restart_catches_up () =
  (* A follower machine (replica 2 + memory 2) dies and restarts: the
     re-run replica must install a snapshot from the leader and converge
     on the same applied log, and its memory must end fully fresh. *)
  let cluster, replicas, committed = build_smr () in
  Fault.apply cluster
    [
      Fault.Crash_machine { pid = 2; mid = 2; at = 20.0 };
      Fault.Restart_machine { pid = 2; mid = 2; at = 35.0 };
    ];
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check int) "all commands committed across the outage" 10 !committed;
  let log = check_logs_equal replicas in
  Alcotest.(check int) "restarted replica applied everything" 10 (List.length log);
  Alcotest.(check (list string)) "its memory was re-replicated too" []
    (Memory.stale_registers (Cluster.memory cluster 2) ~region:Smr_log.region)

(* -------------- machine restart re-runs the program ---------------- *)

let test_restart_machine_reruns_program () =
  let cluster : unit Cluster.t = Cluster.create ~n:1 ~m:1 () in
  Cluster.add_region_everywhere cluster ~name:"r"
    ~perm:(Permission.all_readwrite ~n:1) ~registers:[ "x" ];
  let runs = ref 0 in
  Cluster.spawn cluster ~pid:0 (fun ctx ->
      incr runs;
      ignore (Memclient.write ctx.Cluster.client ~mem:0 ~region:"r" ~reg:"x" "v"));
  Fault.apply cluster
    [
      Fault.Crash_machine { pid = 0; mid = 0; at = 1.0 };
      Fault.Restart_machine { pid = 0; mid = 0; at = 5.0 };
    ];
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check int) "program ran twice" 2 !runs;
  Alcotest.(check int) "memory under a fresh epoch" 1
    (Memory.epoch (Cluster.memory cluster 0));
  (* the second run's write repaired the register it uses *)
  Alcotest.(check (list string)) "register rewritten at the new epoch" []
    (Memory.stale_registers (Cluster.memory cluster 0) ~region:"r")

let suite =
  [
    Alcotest.test_case "abandoned quorum waits drop their waiters" `Quick
      test_abandoned_attempts_drop_waiters;
    Alcotest.test_case "smr checkpoints commit and truncate" `Quick
      test_smr_checkpoint_truncates_and_commits;
    Alcotest.test_case "smr repairs a restarted memory" `Quick
      test_smr_repairs_restarted_memory;
    Alcotest.test_case "smr machine restart catches up via snapshot" `Quick
      test_smr_machine_restart_catches_up;
    Alcotest.test_case "restart_machine re-runs the program" `Quick
      test_restart_machine_reruns_program;
  ]

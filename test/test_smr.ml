(* The Mu-style replicated log + KV store built on the protected-memory
   permission discipline: steady-state appends, failover, log safety. *)

open Rdma_sim
open Rdma_mm
open Rdma_smr

let cfg =
  { Consensus_engine.default_config with replicas = 3; max_entries = 32; serve_until = 500.0 }

(* n = replicas + clients processes; m memories. *)
let build ?(seed = 1) ~clients ~m () =
  let n = cfg.Consensus_engine.replicas + clients in
  let cluster : string Cluster.t =
    Cluster.create ~seed ~legal_change:(Smr_log.legal_change cfg) ~n ~m ()
  in
  Smr_log.setup_regions cluster cfg;
  cluster

let spawn_replicas cluster =
  Array.init cfg.Consensus_engine.replicas (fun pid ->
      Smr_log.spawn_replica cluster ~cfg ~pid ())

let client_program ~commands ~results (ctx : _ Cluster.ctx) =
  List.iteri
    (fun seq cmd ->
      let index = Smr_log.submit ctx ~cfg ~seq ~cmd ~timeout:200.0 in
      results := (cmd, index) :: !results)
    commands

let test_basic_replication () =
  let cluster = build ~clients:1 ~m:3 () in
  let replicas = spawn_replicas cluster in
  let results = ref [] in
  let commands =
    List.map Kv.encode_command
      [ Kv.Set ("a", "1"); Kv.Set ("b", "2"); Kv.Delete "a"; Kv.Set ("c", "3") ]
  in
  Cluster.spawn cluster ~pid:3 (client_program ~commands ~results);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  (* all commands committed, in order *)
  let indices = List.rev_map snd !results in
  Alcotest.(check (list (option int))) "commands committed in order"
    [ Some 1; Some 2; Some 3; Some 4 ] indices;
  (* every replica applied the same log *)
  let logs = Array.map Smr_log.applied_entries replicas in
  Alcotest.(check bool) "replicas agree" true (logs.(0) = logs.(1) && logs.(1) = logs.(2));
  (* and the materialized KV state is correct *)
  let kv = Kv.of_log logs.(1) in
  Alcotest.(check (option string)) "a deleted" None (Kv.get kv "a");
  Alcotest.(check (option string)) "b present" (Some "2") (Kv.get kv "b");
  Alcotest.(check (option string)) "c present" (Some "3") (Kv.get kv "c")

let test_two_clients () =
  let cluster = build ~clients:2 ~m:3 () in
  let replicas = spawn_replicas cluster in
  let r1 = ref [] and r2 = ref [] in
  let cmds pfx = List.init 3 (fun i -> Kv.encode_command (Kv.Set (Printf.sprintf "%s%d" pfx i, "v"))) in
  Cluster.spawn cluster ~pid:3 (client_program ~commands:(cmds "x") ~results:r1);
  Cluster.spawn cluster ~pid:4 (client_program ~commands:(cmds "y") ~results:r2);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check bool) "all of client 1 committed" true
    (List.for_all (fun (_, i) -> i <> None) !r1);
  Alcotest.(check bool) "all of client 2 committed" true
    (List.for_all (fun (_, i) -> i <> None) !r2);
  let logs = Array.map Smr_log.applied_entries replicas in
  Alcotest.(check bool) "replicas agree" true (logs.(0) = logs.(1) && logs.(1) = logs.(2));
  Alcotest.(check int) "six entries total" 6 (List.length logs.(0))

let test_leader_failover_preserves_log () =
  let cluster = build ~clients:1 ~m:3 () in
  let replicas = spawn_replicas cluster in
  let results = ref [] in
  let commands =
    List.init 6 (fun i -> Kv.encode_command (Kv.Set (Printf.sprintf "k%d" i, string_of_int i)))
  in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      (* first half under the initial leader *)
      List.iteri
        (fun seq cmd ->
          if seq < 3 then
            results := (cmd, Smr_log.submit ctx ~cfg ~seq ~cmd ~timeout:150.0) :: !results)
        commands;
      (* the leader crashes; keep submitting — the new leader must
         recover the committed prefix and continue *)
      Cluster.crash_process cluster 0;
      List.iteri
        (fun seq cmd ->
          if seq >= 3 then
            results :=
              (cmd, Smr_log.submit ctx ~cfg ~seq ~cmd ~timeout:250.0) :: !results)
        commands);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check int) "all six committed" 6
    (List.length (List.filter (fun (_, i) -> i <> None) !results));
  (* surviving replicas agree and hold all six entries *)
  let l1 = Smr_log.applied_entries replicas.(1) in
  let l2 = Smr_log.applied_entries replicas.(2) in
  Alcotest.(check bool) "survivors agree" true (l1 = l2);
  Alcotest.(check int) "no committed entry lost" 6 (List.length l1);
  let kv = Kv.of_log l1 in
  Alcotest.(check (option string)) "late write present" (Some "5") (Kv.get kv "k5");
  Alcotest.(check (option string)) "early write survived failover" (Some "0")
    (Kv.get kv "k0")

let test_memory_crash_tolerated () =
  let cluster = build ~clients:1 ~m:3 () in
  let replicas = spawn_replicas cluster in
  let results = ref [] in
  let commands = List.init 3 (fun i -> Kv.encode_command (Kv.Set (Printf.sprintf "k%d" i, "v"))) in
  Cluster.spawn cluster ~pid:3 (client_program ~commands ~results);
  Rdma_consensus.Fault.(apply cluster [ Crash_memory { mid = 1; at = 0.0 } ]);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check bool) "all committed with 2/3 memories" true
    (List.for_all (fun (_, i) -> i <> None) !results);
  ignore replicas

let test_log_prefix_safety_sweep () =
  (* Crash the leader at several points mid-workload: committed prefixes
     at surviving replicas must always be consistent (one is a prefix of
     the other, and acked commands are never lost). *)
  List.iter
    (fun at ->
      let cluster = build ~clients:1 ~m:3 () in
      let replicas = spawn_replicas cluster in
      let acked = ref [] in
      Cluster.spawn cluster ~pid:3 (fun ctx ->
          List.iter
            (fun seq ->
              let cmd = Kv.encode_command (Kv.Set (Printf.sprintf "k%d" seq, "v")) in
              match Smr_log.submit ctx ~cfg ~seq ~cmd ~timeout:250.0 with
              | Some index -> acked := (index, cmd) :: !acked
              | None -> ())
            [ 0; 1; 2; 3 ]);
      Rdma_consensus.Fault.(apply cluster [ Crash_process { pid = 0; at } ]);
      Cluster.run cluster;
      Cluster.check_errors cluster;
      let l1 = Smr_log.applied_entries replicas.(1) in
      let l2 = Smr_log.applied_entries replicas.(2) in
      let is_prefix a b =
        let rec go a b =
          match (a, b) with
          | [], _ -> true
          | x :: a', y :: b' -> x = y && go a' b'
          | _, [] -> false
        in
        if List.length a <= List.length b then go a b else go b a
      in
      Alcotest.(check bool)
        (Printf.sprintf "survivor logs consistent (crash at %.0f)" at)
        true (is_prefix l1 l2);
      (* every acked command appears in the longer survivor log *)
      let longest = if List.length l1 >= List.length l2 then l1 else l2 in
      List.iter
        (fun (index, cmd) ->
          Alcotest.(check bool)
            (Printf.sprintf "acked entry %d survives (crash at %.0f)" index at)
            true
            (List.mem (index, cmd) longest))
        !acked)
    [ 3.0; 6.0; 9.0; 15.0 ]

let test_append_is_two_delays () =
  (* The Mu-style claim: one committed append = one replicated write.
     Measure the ack time of the first command: client→leader (1) +
     append write (2) + ack (1) = 4 virtual time units end to end. *)
  let cluster = build ~clients:1 ~m:3 () in
  let _ = spawn_replicas cluster in
  let acked_at = ref nan in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      let cmd = Kv.encode_command (Kv.Set ("k", "v")) in
      match Smr_log.submit ctx ~cfg ~seq:0 ~cmd ~timeout:100.0 with
      | Some _ -> acked_at := Engine.now ctx.Cluster.ctx_engine
      | None -> ());
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (float 0.0)) "client round trip = 1 + 2 + 1 delays" 4.0 !acked_at;
  (* Pipelined (Section 5.1: "the leader terminates one instance and
     becomes the default leader in the next"): six clients submit at
     t=0, the leader holds all six requests at 1, and each append costs
     one more replicated write. *)
  let cluster = build ~clients:6 ~m:3 () in
  let replicas = spawn_replicas cluster in
  let applied_at = ref [] in
  Smr_log.on_commit replicas.(0) (fun ~index ~cmd:_ ->
      applied_at := (index, Engine.now (Cluster.engine cluster)) :: !applied_at);
  for client = 0 to 5 do
    Cluster.spawn cluster ~pid:(3 + client) (fun ctx ->
        ignore
          (Smr_log.submit ctx ~cfg ~seq:0
             ~cmd:(Kv.encode_command (Kv.Set (Printf.sprintf "k%d" client, "v")))
             ~timeout:100.0))
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (pair int (float 0.0))))
    "leader applies one entry every 2 delays"
    (List.init 6 (fun i -> (i + 1, 3.0 +. (2.0 *. float_of_int i))))
    (List.rev !applied_at)

let test_linearizable_reads () =
  (* Reads reflect every command acked before them; a deposed leader's
     lease write naks, so a stale leader can never serve a read. *)
  let cluster = build ~clients:1 ~m:3 () in
  let replicas = spawn_replicas cluster in
  let observations = ref [] in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      let put seq k =
        ignore
          (Smr_log.submit ctx ~cfg ~seq
             ~cmd:(Kv.encode_command (Kv.Set (k, "v")))
             ~timeout:150.0)
      in
      let read seq =
        observations := Smr_log.linearizable_read ctx ~cfg ~seq ~timeout:150.0 :: !observations
      in
      read 100;
      put 0 "a";
      read 101;
      put 1 "b";
      put 2 "c";
      read 102);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (option int)))
    "reads reflect all preceding acked writes"
    [ Some 0; Some 1; Some 3 ]
    (List.rev !observations);
  ignore replicas

let test_read_after_failover () =
  let cluster = build ~clients:1 ~m:3 () in
  let _ = spawn_replicas cluster in
  let final_read = ref None in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      ignore
        (Smr_log.submit ctx ~cfg ~seq:0
           ~cmd:(Kv.encode_command (Kv.Set ("k", "v")))
           ~timeout:150.0);
      Cluster.crash_process cluster 0;
      (* a later linearizable read from the new leader must still count
         the pre-crash committed entry *)
      final_read := Smr_log.linearizable_read ctx ~cfg ~seq:1 ~timeout:250.0);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (option int)) "read after failover sees the committed entry"
    (Some 1) !final_read

let suite =
  [
    Alcotest.test_case "basic replication + KV" `Quick test_basic_replication;
    Alcotest.test_case "linearizable reads" `Quick test_linearizable_reads;
    Alcotest.test_case "linearizable read after failover" `Quick test_read_after_failover;
    Alcotest.test_case "two clients interleave" `Quick test_two_clients;
    Alcotest.test_case "leader failover preserves the log" `Quick
      test_leader_failover_preserves_log;
    Alcotest.test_case "memory crash tolerated" `Quick test_memory_crash_tolerated;
    Alcotest.test_case "log prefix safety sweep" `Slow test_log_prefix_safety_sweep;
    Alcotest.test_case "append commits in 2 delays (Mu-style)" `Quick
      test_append_is_two_delays;
  ]

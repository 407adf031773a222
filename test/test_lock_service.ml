(* The lock-service state machine, standalone and replicated over the
   protected-memory log. *)

open Rdma_sim
open Rdma_mm
open Rdma_smr

let acq l o = Lock_service.Acquire { lock = l; owner = o }

let rel l o = Lock_service.Release { lock = l; owner = o }

let test_grant_and_release () =
  let t = Lock_service.create () in
  Lock_service.apply t (acq "L" "alice");
  (match Lock_service.holder t "L" with
  | Some ("alice", 1) -> ()
  | _ -> Alcotest.fail "alice should hold L with token 1");
  Lock_service.apply t (rel "L" "alice");
  Alcotest.(check bool) "released" true (Lock_service.holder t "L" = None)

let test_fifo_handover () =
  let t = Lock_service.create () in
  Lock_service.apply t (acq "L" "alice");
  Lock_service.apply t (acq "L" "bob");
  Lock_service.apply t (acq "L" "carol");
  Alcotest.(check (list string)) "queue order" [ "bob"; "carol" ]
    (Lock_service.waiting t "L");
  Lock_service.apply t (rel "L" "alice");
  (match Lock_service.holder t "L" with
  | Some ("bob", 2) -> ()
  | _ -> Alcotest.fail "bob should inherit with token 2");
  Lock_service.apply t (rel "L" "bob");
  match Lock_service.holder t "L" with
  | Some ("carol", 3) -> ()
  | _ -> Alcotest.fail "carol should inherit with token 3"

let test_fencing_tokens_strictly_increase () =
  let t = Lock_service.create () in
  List.iter (Lock_service.apply t)
    [ acq "A" "x"; acq "B" "y"; rel "A" "x"; acq "A" "z"; rel "B" "y"; acq "B" "x" ];
  let tokens = List.map (fun (_, _, tok) -> tok) (Lock_service.grant_history t) in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "tokens strictly increase" true (strictly_increasing tokens)

let test_bogus_release_ignored () =
  let t = Lock_service.create () in
  Lock_service.apply t (acq "L" "alice");
  Lock_service.apply t (rel "L" "mallory");
  (match Lock_service.holder t "L" with
  | Some ("alice", _) -> ()
  | _ -> Alcotest.fail "foreign release must be a no-op");
  Lock_service.apply t (rel "Z" "anyone");
  Alcotest.(check bool) "release of unknown lock harmless" true
    (Lock_service.holder t "Z" = None)

let test_reentrant_acquire_noop () =
  let t = Lock_service.create () in
  Lock_service.apply t (acq "L" "alice");
  Lock_service.apply t (acq "L" "alice");
  Alcotest.(check (list string)) "no self-queue" [] (Lock_service.waiting t "L");
  Lock_service.apply t (rel "L" "alice");
  Alcotest.(check bool) "fully released" true (Lock_service.holder t "L" = None)

(* Replicated: two clients compete for a lock through the log; all
   replicas agree on the grant sequence, even across a leader crash. *)
let test_replicated_lock_service () =
  let cfg =
    { Consensus_engine.default_config with replicas = 3; max_entries = 32; serve_until = 500.0 }
  in
  let n = cfg.Consensus_engine.replicas + 2 in
  let cluster : string Cluster.t =
    Cluster.create ~legal_change:(Smr_log.legal_change cfg) ~n ~m:3 ()
  in
  Smr_log.setup_regions cluster cfg;
  let replicas =
    Array.init cfg.Consensus_engine.replicas (fun pid -> Smr_log.spawn_replica cluster ~cfg ~pid ())
  in
  let submit_all ctx cmds =
    List.iteri
      (fun seq cmd ->
        ignore
          (Smr_log.submit ctx ~cfg ~seq ~cmd:(Lock_service.encode_command cmd)
             ~timeout:250.0))
      cmds
  in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      submit_all ctx [ acq "L" "alice"; rel "L" "alice"; acq "L" "alice" ]);
  Cluster.spawn cluster ~pid:4 (fun ctx ->
      Engine.sleep 1.0;
      submit_all ctx [ acq "L" "bob"; acq "M" "bob" ]);
  (* crash the leader mid-stream *)
  Rdma_consensus.Fault.(apply cluster [ Crash_process { pid = 0; at = 7.0 } ]);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  let s1 = Lock_service.of_log (Smr_log.applied_entries replicas.(1)) in
  let s2 = Lock_service.of_log (Smr_log.applied_entries replicas.(2)) in
  Alcotest.(check bool) "replicas agree on grant history" true
    (Lock_service.grant_history s1 = Lock_service.grant_history s2);
  Alcotest.(check bool) "M granted to bob" true
    (match Lock_service.holder s1 "M" with Some ("bob", _) -> true | _ -> false);
  (* L's final holder depends on interleaving but must be alice or bob,
     consistently *)
  Alcotest.(check bool) "L held by a real client" true
    (match Lock_service.holder s1 "L" with
    | Some (("alice" | "bob"), _) -> true
    | _ -> false)

let suite =
  [
    Alcotest.test_case "grant and release" `Quick test_grant_and_release;
    Alcotest.test_case "FIFO handover with tokens" `Quick test_fifo_handover;
    Alcotest.test_case "fencing tokens strictly increase" `Quick
      test_fencing_tokens_strictly_increase;
    Alcotest.test_case "foreign release ignored" `Quick test_bogus_release_ignored;
    Alcotest.test_case "reentrant acquire is a no-op" `Quick test_reentrant_acquire_noop;
    Alcotest.test_case "replicated locks survive leader crash" `Quick
      test_replicated_lock_service;
  ]

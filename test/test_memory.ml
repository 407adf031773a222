(* RDMA memory model tests: regions, permissions, dynamic permission
   changes with legalChange, crash semantics, timing. *)

open Rdma_sim
open Rdma_mem

let make_memory ?legal_change () =
  let engine = Engine.create () in
  let mem = Memory.create ?legal_change ~engine ~mid:0 () in
  (engine, mem)

let in_fiber engine f =
  ignore (Engine.spawn engine "test" f);
  Engine.run engine;
  match Engine.errors engine with
  | [] -> ()
  | (name, e) :: _ -> Alcotest.failf "fiber %s raised %s" name (Printexc.to_string e)

let op_result = Alcotest.testable (Fmt.of_to_string (function Memory.Ack -> "ack" | Memory.Nak -> "nak")) ( = )

let read_result =
  Alcotest.testable
    (Fmt.of_to_string (function
      | Memory.Read None -> "read ⊥"
      | Memory.Read (Some v) -> "read " ^ v
      | Memory.Read_nak -> "nak"))
    ( = )

let test_write_read () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:2) ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let w = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v1") in
      Alcotest.check op_result "write acks" Memory.Ack w;
      let r = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "read sees write" (Memory.Read (Some "v1")) r)

let test_initial_bottom () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:2) ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let r = Ivar.await (Memory.read_async mem ~from:0 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "fresh register is ⊥" (Memory.Read None) r)

let test_permission_enforced () =
  let engine, mem = make_memory () in
  (* SWMR region owned by 0: 1 may read but not write. *)
  Memory.add_region mem ~name:"r" ~perm:(Permission.swmr ~writer:0 ~n:2) ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let w = Ivar.await (Memory.write_async mem ~from:1 ~region:"r" ~reg:"x" "evil") in
      Alcotest.check op_result "non-writer gets nak" Memory.Nak w;
      let r = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "register untouched" (Memory.Read None) r;
      let w0 = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "mine") in
      Alcotest.check op_result "owner writes" Memory.Ack w0)

let test_read_permission_enforced () =
  let engine, mem = make_memory () in
  (* Region readable only by 0. *)
  Memory.add_region mem ~name:"r"
    ~perm:(Permission.make ~readwrite:[ 0 ] ())
    ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let r = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "unauthorized read naks" Memory.Read_nak r)

let test_unknown_region_and_register () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:2) ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let w = Ivar.await (Memory.write_async mem ~from:0 ~region:"nope" ~reg:"x" "v") in
      Alcotest.check op_result "unknown region naks" Memory.Nak w;
      let w2 = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"y" "v") in
      Alcotest.check op_result "register outside region naks" Memory.Nak w2)

let test_static_permissions_refuse_change () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.swmr ~writer:0 ~n:2) ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let c =
        Ivar.await
          (Memory.change_permission_async mem ~from:1 ~region:"r"
             ~perm:(Permission.all_readwrite ~n:2))
      in
      Alcotest.check op_result "static legalChange refuses" Memory.Nak c;
      match Memory.region_perm mem "r" with
      | Some p ->
          Alcotest.(check bool) "permission unchanged" true
            (Permission.equal p (Permission.swmr ~writer:0 ~n:2))
      | None -> Alcotest.fail "region vanished")

let test_dynamic_permission_change () =
  let legal_change ~pid ~region:_ ~current:_ ~requested =
    (* anyone may take exclusive writership for themselves *)
    Permission.sole_writer requested = Some pid
  in
  let engine, mem = make_memory ~legal_change () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.exclusive_writer ~writer:0 ~n:3)
    ~registers:[ "x" ];
  in_fiber engine (fun () ->
      (* 1 takes over; 0's subsequent write must nak. *)
      let c =
        Ivar.await
          (Memory.change_permission_async mem ~from:1 ~region:"r"
             ~perm:(Permission.exclusive_writer ~writer:1 ~n:3))
      in
      Alcotest.check op_result "legal takeover applied" Memory.Ack c;
      let w = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "old") in
      Alcotest.check op_result "deposed writer naks" Memory.Nak w;
      let w1 = Ivar.await (Memory.write_async mem ~from:1 ~region:"r" ~reg:"x" "new") in
      Alcotest.check op_result "new owner writes" Memory.Ack w1;
      (* illegal shape (grabbing for someone else) is refused *)
      let c2 =
        Ivar.await
          (Memory.change_permission_async mem ~from:2 ~region:"r"
             ~perm:(Permission.exclusive_writer ~writer:1 ~n:3))
      in
      Alcotest.check op_result "illegal change refused" Memory.Nak c2)

let test_revocation_race () =
  (* The uncontended-instantaneous guarantee: a write that arrives after a
     revocation naks, even if issued before it. *)
  let legal_change ~pid ~region:_ ~current:_ ~requested =
    Permission.sole_writer requested = Some pid
  in
  let engine, mem = make_memory ~legal_change () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.exclusive_writer ~writer:0 ~n:2)
    ~registers:[ "x" ];
  let write_result = ref None in
  ignore
    (Engine.spawn engine "writer" (fun () ->
         (* issue at t=0.5; arrives at memory at t=1.5, after the takeover
            below lands at t=1.25 *)
         Engine.sleep 0.5;
         write_result :=
           Some (Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v"))));
  ignore
    (Engine.spawn engine "grabber" (fun () ->
         Engine.sleep 0.25;
         ignore
           (Ivar.await
              (Memory.change_permission_async mem ~from:1 ~region:"r"
                 ~perm:(Permission.exclusive_writer ~writer:1 ~n:2)))));
  Engine.run engine;
  Alcotest.(check bool) "write overtaken by revocation naks" true
    (!write_result = Some Memory.Nak)

let test_crash_hangs_operations () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:1) ~registers:[ "x" ];
  let got = ref (Some Memory.Ack) in
  ignore
    (Engine.spawn engine "writer" (fun () ->
         Memory.crash mem;
         got := Ivar.await_timeout (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v") 50.0));
  Engine.run engine;
  Alcotest.(check bool) "operation on crashed memory hangs" true (!got = None)

let test_crash_mid_flight () =
  (* Crash after the request leg but before the response leg: the write
     may have applied, but the caller never hears back. *)
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:1) ~registers:[ "x" ];
  let got = ref (Some Memory.Ack) in
  ignore
    (Engine.spawn engine "writer" (fun () ->
         let iv = Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v" in
         got := Ivar.await_timeout iv 50.0));
  Engine.schedule engine 1.5 (fun () -> Memory.crash mem);
  Engine.run engine;
  Alcotest.(check bool) "no response after crash" true (!got = None);
  Alcotest.(check (option string)) "write applied before crash" (Some "v")
    (Memory.peek_register mem "x")

let test_operation_timing () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:1) ~registers:[ "x" ];
  let at = ref 0.0 in
  ignore
    (Engine.spawn engine "writer" (fun () ->
         ignore (Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v"));
         at := Engine.now engine));
  Engine.run engine;
  Alcotest.(check (float 0.0)) "a memory operation costs two delays" 2.0 !at

let test_duplicate_register_rejected () =
  let _, mem = make_memory () in
  Memory.add_region mem ~name:"r1" ~perm:(Permission.all_readwrite ~n:1) ~registers:[ "x" ];
  Alcotest.(check bool) "register cannot join two regions" true
    (try
       Memory.add_region mem ~name:"r2" ~perm:(Permission.all_readwrite ~n:1)
         ~registers:[ "x" ];
       false
     with Invalid_argument _ -> true)

let test_restart_wipes_and_stamps () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:2)
    ~registers:[ "x"; "y" ];
  in_fiber engine (fun () ->
      ignore (Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v1"));
      Memory.crash mem;
      Alcotest.(check bool) "crashed" true (Memory.is_crashed mem);
      Memory.restart mem;
      Alcotest.(check bool) "back up" false (Memory.is_crashed mem);
      Alcotest.(check int) "epoch bumped" 1 (Memory.epoch mem);
      Alcotest.(check (option string)) "value lost" None (Memory.peek_register mem "x");
      Alcotest.(check (list string)) "every register stale" [ "x"; "y" ]
        (Memory.stale_registers mem ~region:"r");
      (* lost state answers "I don't know", never ⊥ — the reader must not
         mistake amnesia for a genuinely unwritten register *)
      let r = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "stale read naks" Memory.Read_nak r;
      (* a current-epoch write repairs the register *)
      ignore (Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v2"));
      Alcotest.(check (list string)) "x repaired, y still stale" [ "y" ]
        (Memory.stale_registers mem ~region:"r");
      let r2 = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "repaired register serves" (Memory.Read (Some "v2")) r2)

let test_restart_write_many_repairs () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:1)
    ~registers:[ "a"; "b"; "c" ];
  in_fiber engine (fun () ->
      Memory.crash mem;
      Memory.restart mem;
      (* state transfer: one batched write stamps every named register,
         ⊥ included — a write of zeroes is still a repair *)
      let w =
        Ivar.await
          (Memory.write_many_async mem ~from:0 ~region:"r"
             ~values:[ ("a", Some "1"); ("b", None) ])
      in
      Alcotest.check op_result "snapshot install acks" Memory.Ack w;
      Alcotest.(check (list string)) "only c still stale" [ "c" ]
        (Memory.stale_registers mem ~region:"r");
      let rm = Ivar.await (Memory.read_many_async mem ~from:0 ~region:"r" ~regs:[ "a"; "b" ]) in
      (match rm with
      | Memory.Read_many vs ->
          Alcotest.(check (array (option string))) "batch serves the snapshot"
            [| Some "1"; None |] vs
      | Memory.Read_many_nak -> Alcotest.fail "repaired batch must serve");
      (* any batch touching a stale register naks whole *)
      let rm2 = Ivar.await (Memory.read_many_async mem ~from:0 ~region:"r" ~regs:[ "a"; "c" ]) in
      Alcotest.(check bool) "batch with a stale member naks" true
        (rm2 = Memory.Read_many_nak))

let test_restart_genesis_vs_quarantine () =
  let legal_change ~pid ~region:_ ~current:_ ~requested =
    Permission.sole_writer requested = Some pid
  in
  let engine, mem = make_memory ~legal_change () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.exclusive_writer ~writer:0 ~n:2)
    ~registers:[ "x" ];
  in_fiber engine (fun () ->
      (* a legalChange-granted takeover is forgotten by the restart *)
      ignore
        (Ivar.await
           (Memory.change_permission_async mem ~from:1 ~region:"r"
              ~perm:(Permission.exclusive_writer ~writer:1 ~n:2)));
      Memory.crash mem;
      Memory.restart mem ~rejoin:`Quarantine;
      Alcotest.(check bool) "quarantined region is fenced" false
        (Memory.region_serving mem "r");
      let w = Ivar.await (Memory.write_async mem ~from:1 ~region:"r" ~reg:"x" "v") in
      Alcotest.check op_result "fenced region naks even the old owner" Memory.Nak w;
      (* re-establishing a permission at the new epoch unfences it *)
      let c =
        Ivar.await
          (Memory.change_permission_async mem ~from:1 ~region:"r"
             ~perm:(Permission.exclusive_writer ~writer:1 ~n:2))
      in
      Alcotest.check op_result "rejoin grant acks" Memory.Ack c;
      Alcotest.(check bool) "region serves again" true (Memory.region_serving mem "r");
      (* a second crash with `Genesis restores the creation-time owner *)
      Memory.crash mem;
      Memory.restart mem;
      Alcotest.(check bool) "genesis rejoin serves immediately" true
        (Memory.region_serving mem "r");
      let w0 = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v0") in
      Alcotest.check op_result "creation-time owner writes" Memory.Ack w0;
      let w1 = Ivar.await (Memory.write_async mem ~from:1 ~region:"r" ~reg:"x" "v1") in
      Alcotest.check op_result "pre-crash takeover forgotten" Memory.Nak w1)

let test_restart_drops_in_flight () =
  (* The epoch fence: an operation issued before the crash never gets a
     response, even if the memory restarts while it would be in flight. *)
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:1) ~registers:[ "x" ];
  let got = ref (Some Memory.Ack) in
  ignore
    (Engine.spawn engine "writer" (fun () ->
         let iv = Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v" in
         got := Ivar.await_timeout iv 50.0));
  Engine.schedule engine 0.5 (fun () -> Memory.crash mem);
  Engine.schedule engine 1.0 (fun () -> Memory.restart mem);
  Engine.run engine;
  Alcotest.(check bool) "pre-crash op stays dropped across the restart" true
    (!got = None);
  Alcotest.(check (option string)) "and its write never applies" None
    (Memory.peek_register mem "x")

let test_restart_requires_crash () =
  let _, mem = make_memory () in
  Alcotest.(check bool) "restarting a live memory is a harness bug" true
    (try
       Memory.restart mem;
       false
     with Invalid_argument _ -> true)

let test_permission_disjointness () =
  Alcotest.(check bool) "overlapping sets rejected" true
    (try
       ignore (Permission.make ~read:[ 0 ] ~readwrite:[ 0 ] ());
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "write then read" `Quick test_write_read;
    Alcotest.test_case "fresh registers read ⊥" `Quick test_initial_bottom;
    Alcotest.test_case "write permission enforced" `Quick test_permission_enforced;
    Alcotest.test_case "read permission enforced" `Quick test_read_permission_enforced;
    Alcotest.test_case "unknown region/register naks" `Quick
      test_unknown_region_and_register;
    Alcotest.test_case "static permissions refuse changes" `Quick
      test_static_permissions_refuse_change;
    Alcotest.test_case "dynamic permission takeover" `Quick test_dynamic_permission_change;
    Alcotest.test_case "revocation beats in-flight write" `Quick test_revocation_race;
    Alcotest.test_case "crashed memory hangs operations" `Quick test_crash_hangs_operations;
    Alcotest.test_case "crash between apply and response" `Quick test_crash_mid_flight;
    Alcotest.test_case "memory op costs two delays" `Quick test_operation_timing;
    Alcotest.test_case "register in one region only" `Quick test_duplicate_register_rejected;
    Alcotest.test_case "restart wipes values under a fresh epoch" `Quick
      test_restart_wipes_and_stamps;
    Alcotest.test_case "write_many is the state-transfer primitive" `Quick
      test_restart_write_many_repairs;
    Alcotest.test_case "genesis vs quarantine rejoin" `Quick
      test_restart_genesis_vs_quarantine;
    Alcotest.test_case "restart drops in-flight operations" `Quick
      test_restart_drops_in_flight;
    Alcotest.test_case "restart requires a crash" `Quick test_restart_requires_crash;
    Alcotest.test_case "permission sets must be disjoint" `Quick
      test_permission_disjointness;
  ]

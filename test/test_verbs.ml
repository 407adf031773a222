(* The ibverbs-flavoured facade (Section 7): protection domains, rkeys,
   queue pairs, deregistration-as-revocation. *)

open Rdma_sim
open Rdma_mem

let build () =
  let engine = Engine.create () in
  let memory = Memory.create ~engine ~mid:0 () in
  (engine, Verbs.nic memory)

let run_fiber engine f =
  ignore (Engine.spawn engine "test" f);
  Engine.run engine;
  match Engine.errors engine with
  | [] -> ()
  | (name, e) :: _ -> Alcotest.failf "fiber %s raised %s" name (Printexc.to_string e)

let test_register_read_write () =
  let engine, nic = build () in
  let pd = Verbs.alloc_pd nic in
  let mr =
    Verbs.reg_mr pd ~name:"buf" ~registers:[ "x" ] ~access:Verbs.Remote_read_write
      ~grantees:[ 1 ]
  in
  let qp = Verbs.create_qp pd ~remote:1 in
  run_fiber engine (fun () ->
      let w = Ivar.await (Verbs.rdma_write qp mr ~rkey:(Verbs.rkey mr) ~reg:"x" "v") in
      Alcotest.(check bool) "write acks" true (w = Memory.Ack);
      match Ivar.await (Verbs.rdma_read qp mr ~rkey:(Verbs.rkey mr) ~reg:"x") with
      | Memory.Read (Some v) -> Alcotest.(check string) "read back" "v" v
      | _ -> Alcotest.fail "read failed")

let test_wrong_rkey_rejected () =
  let engine, nic = build () in
  let pd = Verbs.alloc_pd nic in
  let mr =
    Verbs.reg_mr pd ~name:"buf" ~registers:[ "x" ] ~access:Verbs.Remote_read_write
      ~grantees:[ 1 ]
  in
  let qp = Verbs.create_qp pd ~remote:1 in
  run_fiber engine (fun () ->
      let w = Ivar.await (Verbs.rdma_write qp mr ~rkey:"bogus" ~reg:"x" "v") in
      Alcotest.(check bool) "bogus rkey naks" true (w = Memory.Nak))

let test_pd_isolation () =
  (* A queue pair from another protection domain cannot reach the region
     even with the correct rkey. *)
  let engine, nic = build () in
  let pd1 = Verbs.alloc_pd nic in
  let pd2 = Verbs.alloc_pd nic in
  let mr =
    Verbs.reg_mr pd1 ~name:"buf" ~registers:[ "x" ] ~access:Verbs.Remote_read_write
      ~grantees:[ 1 ]
  in
  let foreign_qp = Verbs.create_qp pd2 ~remote:1 in
  run_fiber engine (fun () ->
      let w = Ivar.await (Verbs.rdma_write foreign_qp mr ~rkey:(Verbs.rkey mr) ~reg:"x" "v") in
      Alcotest.(check bool) "cross-PD access naks" true (w = Memory.Nak))

let test_access_level_enforced () =
  let engine, nic = build () in
  let pd = Verbs.alloc_pd nic in
  let mr =
    Verbs.reg_mr pd ~name:"ro" ~registers:[ "x" ] ~access:Verbs.Remote_read
      ~grantees:[ 1 ]
  in
  let qp = Verbs.create_qp pd ~remote:1 in
  run_fiber engine (fun () ->
      let w = Ivar.await (Verbs.rdma_write qp mr ~rkey:(Verbs.rkey mr) ~reg:"x" "v") in
      Alcotest.(check bool) "write to read-only region naks" true (w = Memory.Nak);
      match Ivar.await (Verbs.rdma_read qp mr ~rkey:(Verbs.rkey mr) ~reg:"x") with
      | Memory.Read None -> ()
      | _ -> Alcotest.fail "read should succeed with bottom")

let test_grantee_scoping () =
  (* Only the grantees of the registration can access, even within the
     protection domain. *)
  let engine, nic = build () in
  let pd = Verbs.alloc_pd nic in
  let mr =
    Verbs.reg_mr pd ~name:"buf" ~registers:[ "x" ] ~access:Verbs.Remote_read_write
      ~grantees:[ 1 ]
  in
  let outsider = Verbs.create_qp pd ~remote:2 in
  run_fiber engine (fun () ->
      let w = Ivar.await (Verbs.rdma_write outsider mr ~rkey:(Verbs.rkey mr) ~reg:"x" "v") in
      Alcotest.(check bool) "non-grantee naks" true (w = Memory.Nak))

let test_dereg_revokes () =
  (* "p can revoke permissions dynamically by simply deregistering the
     memory region" (Section 7). *)
  let engine, nic = build () in
  let pd = Verbs.alloc_pd nic in
  let mr =
    Verbs.reg_mr pd ~name:"buf" ~registers:[ "x" ] ~access:Verbs.Remote_read_write
      ~grantees:[ 1 ]
  in
  let qp = Verbs.create_qp pd ~remote:1 in
  run_fiber engine (fun () ->
      let w1 = Ivar.await (Verbs.rdma_write qp mr ~rkey:(Verbs.rkey mr) ~reg:"x" "v1") in
      Alcotest.(check bool) "write before dereg acks" true (w1 = Memory.Ack);
      Verbs.dereg_mr mr;
      let w2 = Ivar.await (Verbs.rdma_write qp mr ~rkey:(Verbs.rkey mr) ~reg:"x" "v2") in
      Alcotest.(check bool) "write after dereg naks" true (w2 = Memory.Nak))

let test_rereg_hands_over () =
  (* Re-registration with a new writer invalidates the old rkey and
     installs the new grantee — the acceptor-side flow the paper sketches
     for its crash-consensus deployment. *)
  let engine, nic = build () in
  let pd = Verbs.alloc_pd nic in
  let mr1 =
    Verbs.reg_mr pd ~name:"slots" ~registers:[ "x" ] ~access:Verbs.Remote_write
      ~grantees:[ 1 ]
  in
  let qp1 = Verbs.create_qp pd ~remote:1 in
  let qp2 = Verbs.create_qp pd ~remote:2 in
  run_fiber engine (fun () ->
      let w = Ivar.await (Verbs.rdma_write qp1 mr1 ~rkey:(Verbs.rkey mr1) ~reg:"x" "p1") in
      Alcotest.(check bool) "first proposer writes" true (w = Memory.Ack);
      (* hand the region to proposer 2 *)
      let mr2 = Verbs.rereg_mr mr1 ~access:Verbs.Remote_write ~grantees:[ 2 ] in
      let w_old =
        Ivar.await (Verbs.rdma_write qp1 mr1 ~rkey:(Verbs.rkey mr1) ~reg:"x" "stale")
      in
      Alcotest.(check bool) "old rkey dead" true (w_old = Memory.Nak);
      let w_new =
        Ivar.await (Verbs.rdma_write qp2 mr2 ~rkey:(Verbs.rkey mr2) ~reg:"x" "p2")
      in
      Alcotest.(check bool) "new proposer writes" true (w_new = Memory.Ack))

let suite =
  [
    Alcotest.test_case "register, write, read" `Quick test_register_read_write;
    Alcotest.test_case "wrong rkey rejected" `Quick test_wrong_rkey_rejected;
    Alcotest.test_case "protection domains isolate" `Quick test_pd_isolation;
    Alcotest.test_case "access level enforced" `Quick test_access_level_enforced;
    Alcotest.test_case "grantee scoping" `Quick test_grantee_scoping;
    Alcotest.test_case "deregistration revokes instantly" `Quick test_dereg_revokes;
    Alcotest.test_case "re-registration hands write access over" `Quick
      test_rereg_hands_over;
  ]

(* Cheap Quorum (Algorithms 4+5): 2-delay fast path, panic mode, abort
   values with Definition 3 evidence, and the agreement lemmas 4.5/4.6. *)

open Rdma_sim
open Rdma_mm
open Rdma_consensus

let cq_cfg = { Cheap_quorum.default_config with fast_timeout = 60.0 }

let build ?(seed = 1) ~n ~m () =
  let cluster : string Cluster.t =
    Cluster.create ~seed ~legal_change:(Cheap_quorum.legal_change ~n) ~n ~m ()
  in
  Cheap_quorum.setup_regions cluster;
  cluster

(* Run Cheap Quorum alone, collecting per-process outcomes. *)
let run_cq ?(seed = 1) ?(byzantine = []) ?(faults = []) ~n ~m ~inputs () =
  let cluster = build ~seed ~n ~m () in
  let outcomes = Array.make n None in
  for pid = 0 to n - 1 do
    match List.assoc_opt pid byzantine with
    | Some behaviour -> Cluster.spawn_byzantine cluster ~pid behaviour
    | None ->
        Cluster.spawn cluster ~pid (fun ctx ->
            outcomes.(pid) <-
              Some (Cheap_quorum.participate ctx ~cfg:cq_cfg ~input:inputs.(pid) ()))
  done;
  Fault.apply cluster faults;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  (outcomes, cluster)

let decided_value = function
  | Some (Cheap_quorum.Decided { value; _ }) -> Some value
  | _ -> None

let aborted_value = function
  | Some (Cheap_quorum.Aborted { value; _ }) -> Some value
  | _ -> None

let test_common_case_all_decide () =
  let n = 3 and m = 3 in
  let inputs = [| "L"; "x"; "y" |] in
  let outcomes, _ = run_cq ~n ~m ~inputs () in
  Array.iteri
    (fun pid o ->
      Alcotest.(check (option string))
        (Printf.sprintf "p%d decides the leader's value" pid)
        (Some "L") (decided_value o))
    outcomes

let test_leader_decides_in_two_delays () =
  let n = 3 and m = 3 in
  let inputs = [| "L"; "x"; "y" |] in
  let outcomes, _ = run_cq ~n ~m ~inputs () in
  match outcomes.(0) with
  | Some (Cheap_quorum.Decided { at; _ }) ->
      Alcotest.(check (float 0.0)) "leader decision after one replicated write" 2.0 at
  | _ -> Alcotest.fail "leader did not decide"

let test_one_signature_on_fast_path () =
  (* Section 4.2: the fast decision requires one signature — the
     leader's.  The followers here are correct but arbitrarily slow
     (asynchrony), so the only signature in the system at decision time
     is the leader's own. *)
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let sigs_at_decide = ref (-1) in
  Cluster.spawn cluster ~pid:0 (fun ctx ->
      match Cheap_quorum.participate ctx ~cfg:cq_cfg ~input:"L" () with
      | Cheap_quorum.Decided _ ->
          if !sigs_at_decide < 0 then
            sigs_at_decide :=
              Rdma_obs.Obs.counter ctx.Cluster.ctx_obs "crypto.signs"
      | _ -> ());
  for pid = 1 to n - 1 do
    Cluster.spawn cluster ~pid (fun _ctx -> ())
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check int) "exactly one signature before the fast decision" 1 !sigs_at_decide

let test_follower_decisions_have_unanimity_proofs () =
  let n = 3 and m = 3 in
  let inputs = [| "L"; "x"; "y" |] in
  let outcomes, cluster = run_cq ~n ~m ~inputs () in
  let chain = Cluster.keychain cluster in
  for pid = 1 to n - 1 do
    match outcomes.(pid) with
    | Some (Cheap_quorum.Decided { proof = Cheap_quorum.Unanimity p; value; _ }) ->
        Alcotest.(check (option string))
          (Printf.sprintf "p%d's proof verifies" pid)
          (Some value)
          (Cheap_quorum.verify_proof chain ~n p)
    | _ -> Alcotest.failf "p%d should decide with a unanimity proof" pid
  done

let test_silent_leader_all_abort () =
  let n = 3 and m = 3 in
  let inputs = [| "unused"; "x"; "y" |] in
  let byzantine = [ (0, Attacks.cq_silent_leader) ] in
  let outcomes, _ = run_cq ~n ~m ~inputs ~byzantine () in
  for pid = 1 to n - 1 do
    match outcomes.(pid) with
    | Some (Cheap_quorum.Aborted { value; proof = Cheap_quorum.Bare }) ->
        Alcotest.(check string)
          (Printf.sprintf "p%d aborts with its own input" pid)
          inputs.(pid) value
    | _ -> Alcotest.failf "p%d should abort bare" pid
  done

let test_equivocating_leader_all_abort () =
  (* The leader plants different signed values on different replicas:
     majority reads return ⊥ and followers abort with their inputs. *)
  let n = 3 and m = 3 in
  let inputs = [| "unused"; "x"; "y" |] in
  let byzantine = [ (0, Attacks.cq_equivocating_leader ~v1:"black" ~v2:"white") ] in
  let outcomes, _ = run_cq ~n ~m ~inputs ~byzantine () in
  for pid = 1 to n - 1 do
    match outcomes.(pid) with
    | Some (Cheap_quorum.Decided { value; _ }) ->
        Alcotest.failf "p%d decided %s despite equivocation" pid value
    | Some (Cheap_quorum.Aborted _) -> ()
    | None -> Alcotest.failf "p%d has no outcome" pid
  done

let test_forged_leader_signature_rejected () =
  let n = 3 and m = 3 in
  let inputs = [| "unused"; "x"; "y" |] in
  let byzantine = [ (0, Attacks.cq_forging_leader ~value:"fake") ] in
  let outcomes, _ = run_cq ~n ~m ~inputs ~byzantine () in
  for pid = 1 to n - 1 do
    match outcomes.(pid) with
    | Some (Cheap_quorum.Decided _) -> Alcotest.failf "p%d accepted a forged proposal" pid
    | Some (Cheap_quorum.Aborted { value; _ }) ->
        Alcotest.(check bool)
          (Printf.sprintf "p%d never aborts with the forged value" pid)
          true (value <> "fake")
    | None -> Alcotest.failf "p%d has no outcome" pid
  done

let test_early_revocation_leader_panics () =
  (* Lemma: if the leader's permission is revoked before its write lands,
     the write naks and the leader panics instead of deciding. *)
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let outcome = ref None in
  (* the revoker acts at t=0; delay the leader so the revocation wins *)
  Cluster.spawn_byzantine cluster ~pid:1 Attacks.cq_early_revoker;
  Cluster.spawn cluster ~pid:0 (fun ctx ->
      Engine.sleep 6.0;
      outcome := Some (Cheap_quorum.participate ctx ~cfg:cq_cfg ~input:"L" ()));
  Cluster.spawn cluster ~pid:2 (fun ctx ->
      ignore (Cheap_quorum.participate ctx ~cfg:cq_cfg ~input:"z" ()));
  Cluster.run cluster;
  Cluster.check_errors cluster;
  match !outcome with
  | Some (Cheap_quorum.Aborted _) -> ()
  | Some (Cheap_quorum.Decided { value; _ }) ->
      Alcotest.failf "leader decided %s after revocation" value
  | None -> Alcotest.fail "leader has no outcome"

let test_permission_theft_refused () =
  (* legalChange only admits making the leader region read-only: a thief
     requesting write access for itself is refused, and the protocol is
     undisturbed. *)
  let n = 3 and m = 3 in
  let inputs = [| "L"; "x"; "unused" |] in
  let byzantine = [ (2, Attacks.cq_permission_thief ~then_:(fun _ -> ())) ] in
  let outcomes, _ = run_cq ~n ~m ~inputs ~byzantine () in
  Alcotest.(check (option string)) "leader still decides" (Some "L")
    (decided_value outcomes.(0))

let test_abort_agreement_with_leader_decision () =
  (* Lemma 4.6: leader decides, then a follower crash prevents unanimity;
     the other followers abort with the leader's value. *)
  let n = 3 and m = 3 in
  let inputs = [| "L"; "x"; "y" |] in
  let faults = [ Fault.Crash_process { pid = 2; at = 1.0 } ] in
  let outcomes, _ = run_cq ~n ~m ~inputs ~faults () in
  Alcotest.(check (option string)) "leader decided" (Some "L") (decided_value outcomes.(0));
  match outcomes.(1) with
  | Some (Cheap_quorum.Decided { value; _ }) | Some (Cheap_quorum.Aborted { value; _ })
    ->
      Alcotest.(check string) "follower's outcome carries the leader's value" "L" value
  | None -> Alcotest.fail "follower has no outcome"

let test_abort_value_priorities () =
  (* After a panic caused by a crashed follower, surviving followers
     abort with M or T evidence for the leader's value — never Bare. *)
  let n = 3 and m = 3 in
  let inputs = [| "L"; "x"; "y" |] in
  let faults = [ Fault.Crash_process { pid = 2; at = 1.0 } ] in
  let outcomes, cluster = run_cq ~n ~m ~inputs ~faults () in
  let chain = Cluster.keychain cluster in
  match outcomes.(1) with
  | Some (Cheap_quorum.Aborted { value; proof }) -> (
      Alcotest.(check string) "value is the leader's" "L" value;
      match proof with
      | Cheap_quorum.Bare -> Alcotest.fail "abort evidence should cite the leader"
      | Cheap_quorum.Leader_signed s ->
          Alcotest.(check bool) "leader signature valid" true
            (Rdma_crypto.Keychain.valid chain ~author:0
               (Cheap_quorum.value_payload value) s)
      | Cheap_quorum.Unanimity p ->
          Alcotest.(check (option string)) "unanimity proof valid" (Some value)
            (Cheap_quorum.verify_proof chain ~n p))
  | Some (Cheap_quorum.Decided _) -> () (* also fine: decided before noticing *)
  | None -> Alcotest.fail "follower has no outcome"

let test_memory_crash_tolerated () =
  let n = 3 and m = 5 in
  let inputs = [| "L"; "x"; "y" |] in
  let faults =
    [ Fault.Crash_memory { mid = 1; at = 0.0 }; Fault.Crash_memory { mid = 3; at = 0.0 } ]
  in
  let outcomes, _ = run_cq ~n ~m ~inputs ~faults () in
  Alcotest.(check (option string)) "leader decides with 3/5 memories" (Some "L")
    (decided_value outcomes.(0));
  for pid = 1 to n - 1 do
    Alcotest.(check (option string))
      (Printf.sprintf "p%d decides with 3/5 memories" pid)
      (Some "L") (decided_value outcomes.(pid))
  done

let test_decision_agreement_lemma () =
  (* Lemma 4.5 across seeds and fault timings: no two correct processes
     ever decide differently. *)
  List.iter
    (fun (seed, at) ->
      let n = 3 and m = 3 in
      let inputs = [| "L"; "x"; "y" |] in
      let faults = [ Fault.Crash_process { pid = 1; at } ] in
      let outcomes, _ = run_cq ~seed ~n ~m ~inputs ~faults () in
      let decided =
        Array.to_list outcomes |> List.filter_map decided_value
        |> List.sort_uniq String.compare
      in
      Alcotest.(check bool)
        (Printf.sprintf "decision agreement (seed %d, crash at %.1f)" seed at)
        true
        (List.length decided <= 1))
    [ (1, 0.5); (2, 1.5); (3, 2.5); (4, 4.0); (5, 8.0) ]

let suite =
  [
    Alcotest.test_case "common case: all decide leader's value" `Quick
      test_common_case_all_decide;
    Alcotest.test_case "leader decides in 2 delays" `Quick
      test_leader_decides_in_two_delays;
    Alcotest.test_case "one signature on the fast path" `Quick
      test_one_signature_on_fast_path;
    Alcotest.test_case "follower decisions carry unanimity proofs" `Quick
      test_follower_decisions_have_unanimity_proofs;
    Alcotest.test_case "silent leader: followers abort bare" `Quick
      test_silent_leader_all_abort;
    Alcotest.test_case "equivocating leader contained" `Quick
      test_equivocating_leader_all_abort;
    Alcotest.test_case "forged leader signature rejected" `Quick
      test_forged_leader_signature_rejected;
    Alcotest.test_case "early revocation makes leader panic" `Quick
      test_early_revocation_leader_panics;
    Alcotest.test_case "permission theft refused by legalChange" `Quick
      test_permission_theft_refused;
    Alcotest.test_case "abort agreement (Lemma 4.6)" `Quick
      test_abort_agreement_with_leader_decision;
    Alcotest.test_case "abort evidence classes (Definition 3)" `Quick
      test_abort_value_priorities;
    Alcotest.test_case "minority memory crash tolerated" `Quick test_memory_crash_tolerated;
    Alcotest.test_case "decision agreement sweep (Lemma 4.5)" `Quick
      test_decision_agreement_lemma;
  ]

(* Byzantine containment, end to end.

   Act 1 — equivocation against naive broadcast: a Byzantine sender tells
   p1 "commit" and p2 "abort" over plain message passing; the two honest
   processes are split.

   Act 2 — the same equivocation against non-equivocating broadcast
   (Algorithm 2): the conflicting copies collide in the SWMR slots and
   nobody delivers a lie.

   Act 3 — a fully Byzantine *leader* attacks Fast & Robust (equivocating
   across memory replicas); the correct processes abort the fast path and
   agree through Preferential Paxos on one of their own inputs.

     dune exec examples/byzantine_attack.exe *)

open Rdma_net
open Rdma_mm
open Rdma_consensus

let act1 () =
  Fmt.pr "=== Act 1: equivocation over plain message passing ===@.";
  let views = Array.make 3 "?" in
  let equivocate (ctx : string Cluster.ctx) =
    Network.send ctx.Cluster.ep ~dst:1 "commit";
    Network.send ctx.Cluster.ep ~dst:2 "abort"
  in
  ignore
    (Instance.run ~byzantine:[ (0, equivocate) ] ~seed:1 ~n:3 ~m:0
       ~spawn:(fun cluster pid ->
         Cluster.spawn cluster ~pid (fun ctx ->
             let _, msg = Network.recv ctx.Cluster.ep in
             views.(pid) <- msg);
         fun () -> ())
       ());
  Fmt.pr "  p1 heard %S, p2 heard %S -> split: %b@." views.(1) views.(2)
    (views.(1) <> views.(2))

let act2 () =
  Fmt.pr "@.=== Act 2: the same attack vs non-equivocating broadcast ===@.";
  let neb_cfg = { Neb.default_config with give_up_at = 120.0; poll_interval = 1.0 } in
  let delivered = Array.make 3 "nothing" in
  ignore
    (Instance.run
       ~setup:(fun cluster -> Neb.setup_regions cluster ~max_seq:neb_cfg.Neb.max_seq ())
       ~byzantine:[ (0, Attacks.neb_overwrite_equivocation ~m1:"commit" ~m2:"abort") ]
       ~seed:1 ~n:3 ~m:3
       ~spawn:(fun cluster pid ->
         Cluster.spawn cluster ~pid (fun ctx ->
             let neb =
               Neb.create ctx ~cfg:neb_cfg
                 ~deliver:(fun ~k:_ ~msg ~src -> if src = 0 then delivered.(pid) <- msg)
                 ()
             in
             Neb.spawn_poller ctx neb);
         fun () -> ())
       ());
  Fmt.pr "  p1 delivered %S, p2 delivered %S -> split: %b@." delivered.(1) delivered.(2)
    (delivered.(1) <> delivered.(2))

let act3 () =
  Fmt.pr "@.=== Act 3: Byzantine leader vs Fast & Robust ===@.";
  let n = 3 and m = 3 in
  let inputs = [| "(byzantine)"; "honest-1"; "honest-2" |] in
  let byzantine = [ (0, Attacks.cq_equivocating_leader ~v1:"black" ~v2:"white") ] in
  let faults = [ Fault.Set_leader { pid = 1; at = 0.0 } ] in
  let report, byz, _ = Fast_robust.run ~n ~m ~inputs ~byzantine ~faults () in
  Array.iteri
    (fun pid d ->
      match d with
      | Some { Report.value; at } ->
          Fmt.pr "  p%d decided %S at %.1f delays@." pid value at
      | None -> Fmt.pr "  p%d (Byzantine leader) did not decide@." pid)
    report.Report.decisions;
  Fmt.pr "  agreement among correct processes: %b@."
    (Report.agreement_ok ~ignore_pids:byz report);
  match Report.decision_value report with
  | Some v ->
      Fmt.pr "  decided value is an honest input: %b@." (v = "honest-1" || v = "honest-2")
  | None -> Fmt.pr "  no decision@."

let () =
  act1 ();
  act2 ();
  act3 ()

(* The uncontended-instantaneous guarantee, watched in slow motion.

   Protected Memory Paxos gives exactly one process write permission per
   memory.  When Ω moves the leadership, the new leader *takes* the
   permission; from that instant the deposed leader's in-flight writes
   nak, so it learns of the takeover from the write itself — no extra
   read, which is where the two delays are saved over Disk Paxos
   (Section 5.1), and why the lingering-write trap of Theorem 6.1 cannot
   violate agreement here.

     dune exec examples/leader_failover.exe *)

open Rdma_sim
open Rdma_mem
open Rdma_mm
open Rdma_consensus

let () =
  Fmt.pr "=== Permission hand-off under Protected Memory Paxos ===@.";
  let n = 2 and m = 3 in
  let setup cluster =
    Protected_paxos.setup_regions cluster;
    (* watch the permission state of memory 0 over time *)
    let log_perm at =
      Engine.schedule (Cluster.engine cluster) at (fun () ->
          match Memory.region_perm (Cluster.memory cluster 0) Protected_paxos.region with
          | Some p ->
              Fmt.pr "  [%.1f] memory 0 permission: %a@."
                (Engine.now (Cluster.engine cluster))
                Permission.pp p
          | None -> ())
    in
    List.iter log_perm [ 0.0; 3.0; 8.0 ]
  in
  let inputs = [| "from-old-leader"; "from-new-leader" |] in
  let _, decisions =
    Instance.run ~legal_change:Protected_paxos.legal_change ~setup
      (* depose p0 before it can write (its proposal write is in flight) *)
      ~faults:[ Fault.Set_leader { pid = 1; at = 0.5 } ]
      ~seed:1 ~n ~m
      ~spawn:(fun cluster pid ->
        let h = Protected_paxos.spawn cluster ~pid ~input:inputs.(pid) () in
        fun () -> Ivar.peek (Protected_paxos.decision h))
      ()
  in
  let decisions = Array.map Option.join decisions in
  let show pid =
    match decisions.(pid) with
    | Some { Report.value; at } -> Fmt.pr "  p%d decided %S at %.1f@." pid value at
    | None -> Fmt.pr "  p%d did not decide@." pid
  in
  show 0;
  show 1;
  (match (decisions.(0), decisions.(1)) with
  | Some d0, Some d1 ->
      Fmt.pr "  agreement across the hand-off: %b@."
        (String.equal d0.Report.value d1.Report.value)
  | _ -> ());
  Fmt.pr
    "@.The deposed leader's write nak'd at the memories the new leader had@.\
     claimed — it never decided blindly.  Compare Theorem 6.1: with static@.\
     permissions that lingering write would have decided and split the system.@."

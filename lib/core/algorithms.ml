(* The algorithm table: every single-instance algorithm a user can name,
   read by the CLI's run and list commands and by the chaos scenario
   registry.  Each entry runs through the algorithm's own [run], so the
   table adds no second way to start one. *)

open Rdma_mm

type exec =
  seed:int ->
  n:int ->
  m:int ->
  inputs:string array ->
  faults:Fault.t list ->
  byzantine:Instance.byzantine ->
  prepare:(string Cluster.t -> unit) ->
  Report.t

type t = {
  name : string;
  descr : string;
  needs_memories : bool;
  exec : exec;
}

(* Crash-model algorithms have no Byzantine processes to substitute. *)
let crash_only name run : exec =
 fun ~seed ~n ~m ~inputs ~faults ~byzantine ~prepare ->
  if byzantine <> [] then
    invalid_arg (name ^ ": a crash-model algorithm takes no Byzantine processes");
  run ~seed ~n ~m ~inputs ~faults ~prepare

let all =
  [
    {
      name = "paxos";
      descr = "classic Paxos (messages only, n >= 2f+1, 4 delays)";
      needs_memories = false;
      exec =
        crash_only "paxos" (fun ~seed ~n ~m:_ ~inputs ~faults ~prepare ->
            Paxos.run ~seed ~n ~inputs ~faults ~prepare ());
    };
    {
      name = "fast-paxos";
      descr = "Fast Paxos (messages only, n >= 2f+1, 2 delays common case)";
      needs_memories = false;
      exec =
        crash_only "fast-paxos" (fun ~seed ~n ~m:_ ~inputs ~faults ~prepare ->
            Fast_paxos.run ~seed ~n ~inputs ~faults ~prepare ());
    };
    {
      name = "disk-paxos";
      descr = "Disk Paxos (memories only, n >= f+1, m >= 2fM+1, 4 delays)";
      needs_memories = true;
      exec =
        crash_only "disk-paxos" (fun ~seed ~n ~m ~inputs ~faults ~prepare ->
            Disk_paxos.run ~seed ~n ~m ~inputs ~faults ~prepare ());
    };
    {
      name = "protected-paxos";
      descr =
        "Protected Memory Paxos (Algorithm 7: n >= f+1, m >= 2fM+1, 2 delays)";
      needs_memories = true;
      exec =
        crash_only "protected-paxos" (fun ~seed ~n ~m ~inputs ~faults ~prepare ->
            Protected_paxos.run ~seed ~n ~m ~inputs ~faults ~prepare ());
    };
    {
      name = "aligned-paxos";
      descr = "Aligned Paxos (Section 5.2: any minority of n+m agents may crash)";
      needs_memories = true;
      exec =
        crash_only "aligned-paxos" (fun ~seed ~n ~m ~inputs ~faults ~prepare ->
            Aligned_paxos.run ~seed ~n ~m ~inputs ~faults ~prepare ());
    };
    {
      name = "robust-backup";
      descr = "Robust Backup (Theorem 4.4: Byzantine, n >= 2f+1, slow path)";
      needs_memories = true;
      exec =
        (fun ~seed ~n ~m ~inputs ~faults ~byzantine ~prepare ->
          fst
            (Robust_backup.run ~seed ~n ~m ~inputs ~faults ~byzantine ~prepare ()));
    };
    {
      name = "fast-robust";
      descr = "Fast & Robust (Theorem 4.9: Byzantine, n >= 2f+1, 2 delays)";
      needs_memories = true;
      exec =
        (fun ~seed ~n ~m ~inputs ~faults ~byzantine ~prepare ->
          let report, _, _ =
            Fast_robust.run ~seed ~n ~m ~inputs ~faults ~byzantine ~prepare ()
          in
          report);
    };
  ]

let find name = List.find_opt (fun a -> a.name = name) all

let exec name =
  match find name with
  | Some a -> a.exec
  | None -> invalid_arg ("Algorithms.exec: no algorithm " ^ name)

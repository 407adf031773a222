(* The one way to start a run.  The paper runs every algorithm as
   process programs on one M&M system under one failure model
   (Section 3), and so do the single-instance algorithms, the
   multi-instance logs, the SMR harness and the chaos workloads: build
   the cluster, lay out its regions, spawn each pid (its Byzantine
   behaviour if one is given, else its honest program), [prepare], apply
   the faults, run to quiescence, re-raise fiber errors, and read back
   each honest pid's result.  Same-time engine events run in insertion
   order, so pids spawn in increasing order and push their own events
   in [spawn]: that order is part of every fixture. *)

open Rdma_mm

type byzantine = (int * (string Cluster.ctx -> unit)) list

let run ?legal_change ?(setup = fun _ -> ()) ?(byzantine = [])
    ?(prepare = fun _ -> ()) ?(faults = []) ~seed ~n ~m ~spawn () =
  let cluster : string Cluster.t = Cluster.create ~seed ?legal_change ~n ~m () in
  setup cluster;
  let results =
    Array.init n (fun pid ->
        match List.assoc_opt pid byzantine with
        | Some behaviour ->
            Cluster.spawn_byzantine cluster ~pid behaviour;
            None
        | None -> Some (spawn cluster pid))
  in
  prepare cluster;
  Fault.apply cluster faults;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  (cluster, Array.map (Option.map (fun read -> read ())) results)

let decide ~algorithm ?legal_change ?setup ?byzantine ?prepare ?faults ~seed
    ~n ~m ~inputs ~spawn () =
  if Array.length inputs <> n then
    invalid_arg
      (Printf.sprintf "%s: %d inputs for %d processes" algorithm
         (Array.length inputs) n);
  let cluster, decisions =
    run ?legal_change ?setup ?byzantine ?prepare ?faults ~seed ~n ~m
      ~spawn:(fun cluster pid -> spawn cluster pid inputs.(pid))
      ()
  in
  ( Report.of_cluster ~algorithm ~n ~m
      ~decisions:(Array.map Option.join decisions)
      cluster,
    cluster )

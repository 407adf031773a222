(* One-shot SMR driver behind [rdma_agreement run smr --engine E]: [n]
   replicas of the chosen engine plus one client (pid [n]) that submits
   the [inputs] in order — retrying each until it is acked — and closes
   with a linearizable read.  Every surviving replica decides its joined
   applied log at [t_decide]; the client decides the join of its inputs
   once all of them are acked.  Agreement across those decisions checks
   the engine end to end under the CLI's fault schedule. *)

open Rdma_sim
open Rdma_mm
open Rdma_obs
open Rdma_consensus

(* Mirrors the chaos workload timeline (lib/chaos/workloads.ml): clients
   stop by [t_stop], decisions are read at [t_decide], replicas quiesce
   at [serve_until]. *)
let t_stop = 120.0

let t_decide = 260.0

let default_cfg ~replicas =
  {
    Consensus_engine.default_config with
    replicas;
    max_entries = 48;
    serve_until = 300.0;
    checkpoint_every = 5;
    anti_entropy_every = 10.0;
    lease_duration = 20.0;
  }

let run ~engine ?cfg ~seed ~n ~m ~inputs ~faults ~prepare () =
  let module E = (val engine : Consensus_engine.S) in
  let cfg =
    match cfg with
    | Some c -> { c with Consensus_engine.replicas = n }
    | None -> default_cfg ~replicas:n
  in
  let total = n + 1 in
  let cluster : string Cluster.t =
    Cluster.create ~seed ~legal_change:(E.legal_change cfg) ~n:total ~m ()
  in
  E.setup_regions cluster cfg;
  let engine_t = Cluster.engine cluster in
  let decisions : Report.decision option array = Array.make total None in
  let decide ~pid value =
    decisions.(pid) <- Some { Report.value; at = Engine.now engine_t };
    Obs.event (Cluster.obs cluster)
      ~actor:(Printf.sprintf "p%d" pid)
      (Event.Decide { pid; value })
  in
  let replicas = Array.init n (fun pid -> E.spawn_replica cluster ~cfg ~pid ()) in
  Array.iteri
    (fun pid r ->
      Engine.schedule engine_t t_decide (fun () ->
          if not (Cluster.is_crashed cluster pid) then
            decide ~pid
              (String.concat ";" (List.map snd (E.applied_entries r)))))
    replicas;
  let client = n in
  Cluster.spawn cluster ~pid:client (fun ctx ->
      let acked = ref 0 in
      Array.iteri
        (fun seq cmd ->
          (* Retry past leader failovers: a committed-but-unacked submit
             is deduplicated by (client, seq) on the next attempt. *)
          let rec attempt () =
            if Engine.now ctx.Cluster.ctx_engine < t_stop then
              match E.submit ctx ~cfg ~seq ~cmd ~timeout:30.0 with
              | Some _ -> incr acked
              | None -> attempt ()
          in
          if !acked = seq then attempt ())
        inputs;
      ignore
        (E.linearizable_read ctx ~cfg ~seq:1000 ~timeout:30.0 : int option);
      if !acked = Array.length inputs then
        decide ~pid:client (String.concat ";" (Array.to_list inputs)));
  prepare cluster;
  Fault.apply cluster faults;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Report.of_cluster
    ~algorithm:(Printf.sprintf "smr-%s" E.name)
    ~n:total ~m ~decisions cluster

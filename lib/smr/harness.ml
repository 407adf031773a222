(* The SMR harness behind [rdma_agreement run smr --engine E] and the
   chaos scenarios smr-<engine>-recovery and velos-stale-lease: [n]
   replicas of the chosen engine (pids [0 .. n-1]) plus the caller's
   client processes (pids [n], [n+1], ...).  Every surviving replica
   decides its joined applied log at [t_decide]; a client decides
   whatever its program reports.  Agreement across those decisions
   checks the engine end to end under the run's fault schedule. *)

open Rdma_sim
open Rdma_mm
open Rdma_obs
open Rdma_consensus

(* Clients stop issuing new operations by [t_stop]; replicas decide at
   [t_decide], after every engine's catch-up path (pmp snapshot
   anti-entropy, velos memory polling) has healed, and quiesce at the
   config's [serve_until]. *)
let t_stop = 120.0

let t_decide = 260.0

let config ~lease_violation =
  {
    Consensus_engine.default_config with
    max_entries = 48;
    serve_until = 300.0;
    checkpoint_every = 5;
    (* pmp: snapshot anti-entropy cadence; velos: the poll interval *)
    anti_entropy_every = 10.0;
    (* velos serves leased reads with 0 memory ops; pmp ignores it *)
    lease_duration = 20.0;
    lease_violation;
  }

type client =
  Consensus_engine.engine ->
  cfg:Consensus_engine.config ->
  decide:(string -> unit) ->
  string Cluster.t ->
  pid:int ->
  unit

let run ~engine ?(lease_violation = false) ~clients ?byzantine ~seed ~n ~m
    ~faults ~prepare () =
  let module E = (val engine : Consensus_engine.S) in
  let cfg = { (config ~lease_violation) with replicas = n } in
  let total = n + List.length clients in
  let decisions : Report.decision option array = Array.make total None in
  let spawn cluster pid =
    let engine_t = Cluster.engine cluster in
    let decide value =
      decisions.(pid) <- Some { Report.value; at = Engine.now engine_t };
      Obs.event (Cluster.obs cluster)
        ~actor:(Printf.sprintf "p%d" pid)
        (Event.Decide { pid; value })
    in
    (if pid < n then
       (* The replica handle survives process restarts (the engine
          program re-catches-up), so its applied log is current at
          decide time. *)
       let r = E.spawn_replica cluster ~cfg ~pid () in
       Engine.schedule engine_t t_decide (fun () ->
           if not (Cluster.is_crashed cluster pid) then
             decide (String.concat ";" (List.map snd (E.applied_entries r))))
     else (List.nth clients (pid - n)) engine ~cfg ~decide cluster ~pid);
    fun () -> decisions.(pid)
  in
  let cluster, decided =
    Instance.run ~legal_change:(E.legal_change cfg)
      ~setup:(fun cluster -> E.setup_regions cluster cfg)
      ?byzantine ~prepare ~faults ~seed ~n:total ~m ~spawn ()
  in
  Report.of_cluster
    ~algorithm:(Printf.sprintf "smr-%s" E.name)
    ~n:total ~m
    ~decisions:(Array.map Option.join decided)
    cluster

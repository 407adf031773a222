(* One KV session: a fresh cluster running one consensus engine, with a
   fixed pool of client processes serving a seeded open-loop schedule.

   Clients are simulated processes (fibers), never OS threads.  A free
   client takes the next request in due order and sleeps until it is
   due, so the pool behaves as one FIFO queue with [clients] servers:
   a request's latency is measured from its due time and includes the
   time it queued while every client was busy. *)

open Rdma_sim
open Rdma_mm
open Rdma_obs
open Rdma_consensus
open Rdma_smr

type config = {
  replicas : int;
  memories : int;
  clients : int;
  engine_cfg : Consensus_engine.config;
      (** [max_entries] is sized per session from its writes *)
  timeout : float;  (** per-request client timeout, in delays *)
  lag_every : float;  (** follower-lag sampling period; [0.] = off *)
}

type record = {
  req : Arrivals.request;
  pickup : float;  (** a client took the request *)
  done_at : float;  (** ack or read reply; [nan] on timeout *)
  result : int option;  (** acked index, or the index a read returned *)
}

type t = {
  engine : string;
  records : record array;
  logs : (int * string) list list;  (** surviving replicas' applied logs *)
  bindings : (string * string) list;  (** final store of the longest log *)
  events : int;  (** simulator events *)
  heap_peak : int;
  leader_changes : float list;  (** virtual times Ω moved *)
  recoveries : float list;  (** reign recoveries completed after t = 0 *)
  mem_restarts : float list;
  repairs : float list;  (** state transfers onto rejoined memories *)
  lag_max : int;  (** widest applied-count gap between live replicas *)
  checkpoints : int;
  lease_waits : int;
}

let command = function
  | Arrivals.Set { key; value } -> Some (Kv.encode_command (Kv.Set (key, value)))
  | Arrivals.Read -> None

let run (engine : Consensus_engine.engine) cfg ~seed ~faults
    (reqs : Arrivals.request array) =
  let module E = (val engine : Consensus_engine.S) in
  (* the log has room for every write of the schedule, plus a margin *)
  let ecfg =
    { cfg.engine_cfg with max_entries = Arrivals.writes reqs + 64 }
  in
  let cluster, replicas =
    Prof.scope "mm.session_setup" (fun () ->
        let cluster : string Cluster.t =
          Cluster.create ~seed ~legal_change:(E.legal_change ecfg)
            ~n:(cfg.replicas + cfg.clients) ~m:cfg.memories ()
        in
        E.setup_regions cluster ecfg;
        ( cluster,
          Array.init cfg.replicas (fun pid ->
              Consensus_engine.spawn engine cluster ~cfg:ecfg ~pid ()) ))
  in
  let eng = Cluster.engine cluster in
  let total = Array.length reqs in
  let pickup = Array.make total nan in
  let done_at = Array.make total nan in
  let results = Array.make total None in
  let next = ref 0 and finished = ref 0 and over = ref false in
  let leader_changes = ref [] and recoveries = ref [] in
  let mem_restarts = ref [] and repairs = ref [] and lag_max = ref 0 in
  Consensus_engine.on_leader_change cluster (fun _ ->
      leader_changes := Engine.now eng :: !leader_changes);
  Array.iter
    (fun r ->
      Consensus_engine.on_recover r (fun ~term:_ ->
          if Engine.now eng > 0.0 then recoveries := Engine.now eng :: !recoveries))
    replicas;
  if faults <> [] then
    Obs.subscribe (Cluster.obs cluster) (fun ~at ~actor:_ ev ->
        match (ev : Event.t) with
        | Event.Mem_restart _ -> mem_restarts := at :: !mem_restarts
        | Event.Custom { name = "smr.repair" | "velos.repair"; _ } ->
            repairs := at :: !repairs
        | _ -> ());
  let live () =
    List.filter
      (fun pid -> not (Cluster.is_crashed cluster pid))
      (List.init cfg.replicas Fun.id)
  in
  if cfg.lag_every > 0.0 then begin
    let rec sample () =
      if not !over then begin
        let counts =
          List.map (fun pid -> Consensus_engine.applied_count replicas.(pid)) (live ())
        in
        (match counts with
        | [] -> ()
        | c :: _ ->
            let hi = List.fold_left max c counts and lo = List.fold_left min c counts in
            lag_max := max !lag_max (hi - lo));
        Engine.schedule eng cfg.lag_every sample
      end
    in
    Engine.schedule eng cfg.lag_every sample
  end;
  for c = 0 to cfg.clients - 1 do
    Cluster.spawn cluster ~pid:(cfg.replicas + c) (fun ctx ->
        let rec serve () =
          if !next < total then begin
            let i = !next in
            next := i + 1;
            let r = reqs.(i) in
            let now = Engine.now eng in
            if r.Arrivals.due > now then Engine.sleep (r.Arrivals.due -. now);
            pickup.(i) <- Engine.now eng;
            let result =
              match command r.Arrivals.op with
              | Some cmd ->
                  Prof.scope "smr.submit" (fun () ->
                      E.submit ctx ~cfg:ecfg ~seq:i ~cmd ~timeout:cfg.timeout)
              | None ->
                  Prof.scope "smr.read" (fun () ->
                      E.linearizable_read ctx ~cfg:ecfg ~seq:i ~timeout:cfg.timeout)
            in
            results.(i) <- result;
            if result <> None then done_at.(i) <- Engine.now eng;
            finished := !finished + 1;
            if !finished = total then begin
              (* the schedule is served: let the replicas quiesce *)
              over := true;
              Array.iter Consensus_engine.stop replicas
            end;
            serve ()
          end
        in
        serve ())
  done;
  Fault.apply cluster faults;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  let logs = List.map (fun pid -> Consensus_engine.applied replicas.(pid)) (live ()) in
  let stats = Cluster.stats cluster in
  {
    engine = E.name;
    records =
      Array.mapi
        (fun i req ->
          { req; pickup = pickup.(i); done_at = done_at.(i); result = results.(i) })
        reqs;
    logs;
    bindings = Kv.bindings (Kv.of_log (Check.longest logs));
    events = Engine.steps eng;
    heap_peak = Pct.heap_peak (Cluster.obs cluster);
    leader_changes = List.rev !leader_changes;
    recoveries = List.rev !recoveries;
    mem_restarts = List.rev !mem_restarts;
    repairs = List.rev !repairs;
    lag_max = !lag_max;
    checkpoints = Stats.get stats "smr.checkpoints" + Stats.get stats "velos.checkpoints";
    lease_waits = Stats.get stats "velos.lease.waits";
  }

let timeouts t =
  Array.fold_left (fun n r -> if r.result = None then n + 1 else n) 0 t.records

let latency r = r.done_at -. r.req.Arrivals.due

(* Every output check of the session; each entry is one failed op. *)
let violations t =
  let acked =
    Array.to_list t.records
    |> List.filter_map (fun r ->
           match (command r.req.Arrivals.op, r.result) with
           | Some cmd, Some index -> Some (index, cmd)
           | _ -> None)
  in
  let completions =
    Array.to_list t.records
    |> List.filter_map (fun r -> Option.map (fun i -> (r.done_at, i)) r.result)
  in
  let reads =
    Array.to_list t.records
    |> List.filter_map (fun r ->
           match (r.req.Arrivals.op, r.result) with
           | Arrivals.Read, Some i -> Some (r.pickup, i)
           | _ -> None)
  in
  let reference =
    Array.to_list t.records
    |> List.filter_map (fun r ->
           match (r.req.Arrivals.op, r.result) with
           | Arrivals.Set { key; value }, Some index -> Some (index, (key, value))
           | _ -> None)
  in
  Check.prefix_consistent t.logs
  @ Check.acked_in_log ~log:(Check.longest t.logs) acked
  @ Check.stale_reads ~completions reads
  @ Check.final_state ~reference t.bindings

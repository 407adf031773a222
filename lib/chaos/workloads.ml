(* Recovery chaos workloads: scenario executors that exercise the
   crash → recover → repair cycle rather than a single consensus
   instance.

   - [swmr_recovery]: a writer replicates one value through the
     Section 4.1 SWMR construction and then keeps sweeping
     [Swmr.read_repair] while the nemesis crashes and recovers replicas;
     a reader decides the first value a quorum read returns.  The repair
     predicate then demands that every rejoined memory holds a fresh
     copy ([Memory.stale_registers] empty).

   - [pmp_multi_recovery]: repeated Protected Memory Paxos with
     checkpointing and a repair custodian; the per-process decision is
     the joined instance sequence, so the oracle checks agreement over
     the whole log (validity is vacuous — the joined value is not
     literally any input). *)

open Rdma_sim
open Rdma_mem
open Rdma_mm
open Rdma_obs
open Rdma_consensus
open Rdma_reg

(* ---------------- SWMR replication under memory rejoin ------------- *)

let swmr_region = "swmr"

let swmr_reg = "x"

let swmr_n = 2

let swmr_m = 3

(* Writer sweeps end well past the latest possible recovery under the
   scenario budget (crash < horizon, recovery < 1.5*horizon + 2). *)
let swmr_serve_until = 60.0

let swmr_stale cluster mid =
  match
    Memory.stale_registers (Cluster.memory cluster mid) ~region:swmr_region
  with
  | [] -> None
  | regs -> Some (Printf.sprintf "stale: %s" (String.concat "," regs))

let swmr_recovery ~seed ~inputs ~faults ~byzantine ~prepare =
  assert (byzantine = []);
  let n = swmr_n and m = swmr_m in
  let cluster : string Cluster.t = Cluster.create ~seed ~n ~m () in
  Cluster.add_region_everywhere cluster ~name:swmr_region
    ~perm:(Permission.swmr ~writer:0 ~n)
    ~registers:[ swmr_reg ];
  let decisions : Report.decision option array = Array.make n None in
  let decide (ctx : string Cluster.ctx) value =
    let pid = ctx.Cluster.pid in
    decisions.(pid) <-
      Some { Report.value; at = Engine.now ctx.Cluster.ctx_engine };
    Obs.event ctx.Cluster.ctx_obs
      ~actor:(Printf.sprintf "p%d" pid)
      (Event.Decide { pid; value })
  in
  (* p0, the sole writer: replicate the value, then keep sweeping
     [read_repair] so a replica that rejoined empty gets the value
     written back (and stamped fresh) once it is responding again. *)
  Cluster.spawn cluster ~pid:0 (fun ctx ->
      let h = Swmr.attach ~client:ctx.Cluster.client ~region:swmr_region in
      let v = inputs.(0) in
      ignore (Swmr.write h ~reg:swmr_reg v);
      decide ctx v;
      while Engine.now ctx.Cluster.ctx_engine < swmr_serve_until do
        ignore (Swmr.read_repair h ~reg:swmr_reg);
        Engine.sleep 5.0
      done);
  (* p1, a reader: decides the first value a quorum read returns.  The
     loop is bounded so an (out-of-budget) unreadable run still
     quiesces and lets the watchdog report the liveness miss. *)
  Cluster.spawn cluster ~pid:1 (fun ctx ->
      let h = Swmr.attach ~client:ctx.Cluster.client ~region:swmr_region in
      let rec loop () =
        match Swmr.read h ~reg:swmr_reg with
        | Some v -> decide ctx v
        | None ->
            if Engine.now ctx.Cluster.ctx_engine < swmr_serve_until then begin
              Engine.sleep 2.0;
              loop ()
            end
      in
      loop ());
  prepare cluster;
  Fault.apply cluster faults;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Report.of_cluster ~algorithm:"swmr-recovery" ~n ~m ~decisions cluster

(* --------- repeated Protected Paxos with checkpoints + repair ------ *)

let pmp_n = 3

let pmp_m = 3

let pmp_cfg =
  {
    Protected_paxos_multi.default_config with
    slots = 3;
    checkpoint_every = 2;
    serve_until = 60.0;
  }

let pmp_stale cluster mid =
  match
    Memory.stale_registers (Cluster.memory cluster mid)
      ~region:Protected_paxos_multi.region
  with
  | [] -> None
  | regs -> Some (Printf.sprintf "stale: %s" (String.concat "," regs))

let pmp_multi_recovery ~seed ~inputs:_ ~faults ~byzantine ~prepare =
  assert (byzantine = []);
  let reports =
    Protected_paxos_multi.run ~cfg:pmp_cfg ~seed ~faults ~prepare ~n:pmp_n
      ~m:pmp_m
      ~input_for:(fun ~pid ~instance -> Printf.sprintf "v%d.%d" pid instance)
      ()
  in
  (* Collapse the per-instance reports into one: a process "decides" the
     joined sequence iff it decided every instance, mirroring the Decide
     event the program emits — so the oracle checks agreement (and
     liveness) over the whole log. *)
  let decisions =
    Array.init pmp_n (fun pid ->
        let per =
          Array.map (fun (r : Report.t) -> r.Report.decisions.(pid)) reports
        in
        if Array.for_all Option.is_some per then
          let ds = Array.to_list per |> List.map Option.get in
          Some
            {
              Report.value = Codec.join (List.map (fun d -> d.Report.value) ds);
              at = List.fold_left (fun acc d -> Float.max acc d.Report.at) 0.0 ds;
            }
        else None)
  in
  {
    (reports.(Array.length reports - 1)) with
    Report.algorithm = "pmp-multi-recovery";
    decisions;
  }

(* ---------- engine-agnostic SMR under the full recovery nemesis ----- *)

(* One workload, every consensus engine: 3 replicas serve a replicated
   log through the shared {!Rdma_smr.Consensus_engine} interface while 2
   client processes (spawned beyond the nemesis-facing [smr_n], so the
   fault generator never targets them) submit commands and issue
   linearizable reads.  Clients enforce the real-time read invariant
   with a shared watermark: a read must never return less than the
   highest index any client saw acknowledged (or read) before the read
   was SENT.  A violation becomes that client's decision, which the
   agreement oracle then flags against the replicas' joined logs — this
   is exactly how the deliberately stale-lease velos fixture is caught.

   Replicas decide the joined applied log at a fixed virtual time well
   after the workload quiesces (both engines' catch-up paths — pmp
   snapshot anti-entropy, velos memory polling — have healed by then);
   clients that never witnessed a violation are retired (crashed) before
   the decision point so the liveness watchdog exempts them. *)

let smr_n = 3

let smr_m = 3

let smr_clients = 2

let smr_t_stop = 120.0 (* clients stop issuing new operations *)

let smr_t_retire = 140.0 (* violation-free clients are retired *)

let smr_t_decide = 260.0 (* replicas decide their joined logs *)

let smr_deadline = 400.0 (* oracle watchdog *)

let smr_cfg ~lease_violation =
  {
    Rdma_smr.Consensus_engine.default_config with
    replicas = smr_n;
    max_entries = 48;
    serve_until = 300.0;
    checkpoint_every = 5;
    (* pmp: snapshot anti-entropy cadence; velos: the poll interval *)
    anti_entropy_every = 10.0;
    (* velos serves leased reads with 0 memory ops; pmp ignores it *)
    lease_duration = 20.0;
    lease_violation;
  }

let smr_stale (module E : Rdma_smr.Consensus_engine.S) cluster mid =
  match Memory.stale_registers (Cluster.memory cluster mid) ~region:E.region with
  | [] -> None
  | regs -> Some (Printf.sprintf "stale: %s" (String.concat "," regs))

let smr_recovery (module E : Rdma_smr.Consensus_engine.S) ~lease_violation
    ~seed ~inputs:_ ~faults ~byzantine ~prepare =
  assert (byzantine = []);
  let cfg = smr_cfg ~lease_violation in
  let n = smr_n + smr_clients in
  let m = smr_m in
  let cluster : string Cluster.t =
    Cluster.create ~seed ~legal_change:(E.legal_change cfg) ~n ~m ()
  in
  E.setup_regions cluster cfg;
  let engine = Cluster.engine cluster in
  let decisions : Report.decision option array = Array.make n None in
  let decide ~pid value =
    decisions.(pid) <- Some { Report.value; at = Engine.now engine };
    Obs.event (Cluster.obs cluster)
      ~actor:(Printf.sprintf "p%d" pid)
      (Event.Decide { pid; value })
  in
  (* Replicas + their decision watchdogs.  The replica handle survives
     process restarts (the engine program re-catches-up), so reading the
     applied log at decide time is always current. *)
  let replicas =
    Array.init smr_n (fun pid -> E.spawn_replica cluster ~cfg ~pid ())
  in
  Array.iteri
    (fun pid r ->
      Engine.schedule engine smr_t_decide (fun () ->
          if not (Cluster.is_crashed cluster pid) then
            decide ~pid
              (String.concat ";" (List.map snd (E.applied_entries r)))))
    replicas;
  (* Clients: interleave submits and linearizable reads, checking the
     shared real-time watermark.  [ops] seeds differ per client; read
     seqs live in a disjoint space from submit seqs. *)
  let watermark = ref 0 in
  for c = 0 to smr_clients - 1 do
    let pid = smr_n + c in
    Cluster.spawn cluster ~pid (fun ctx ->
        let stale = ref None in
        let seq = ref 0 in
        while
          !stale = None
          && Engine.now ctx.Cluster.ctx_engine < smr_t_stop
        do
          let cmd = Printf.sprintf "c%d.%d" pid !seq in
          (match E.submit ctx ~cfg ~seq:!seq ~cmd ~timeout:30.0 with
          | Some index -> watermark := max !watermark index
          | None -> ());
          let w0 = !watermark in
          (match E.linearizable_read ctx ~cfg ~seq:(1000 + !seq) ~timeout:30.0 with
          | Some up_to ->
              if up_to < w0 then
                stale :=
                  Some
                    (Printf.sprintf "stale-read: saw %d after %d was acked" up_to
                       w0)
              else watermark := max !watermark up_to
          | None -> ());
          incr seq
        done;
        match !stale with Some v -> decide ~pid:ctx.Cluster.pid v | None -> ());
    (* Retire the client before the decision point: crashed pids are
       exempt from the liveness watchdog, and a retired client that DID
       decide (a violation) still counts for agreement. *)
    Engine.schedule engine smr_t_retire (fun () ->
        if not (Cluster.is_crashed cluster pid) then
          Cluster.crash_process cluster pid)
  done;
  prepare cluster;
  Fault.apply cluster faults;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Report.of_cluster
    ~algorithm:(Printf.sprintf "smr-%s-recovery" E.name)
    ~n ~m ~decisions cluster

(* Recovery chaos workloads: scenario executors that exercise the
   crash → recover → repair cycle rather than a single consensus
   instance.

   - [swmr_recovery]: a writer replicates one value through the
     Section 4.1 SWMR construction and then keeps sweeping
     [Swmr.read_repair] while the nemesis crashes and recovers replicas;
     a reader decides the first value a quorum read returns.  The repair
     predicate then demands that every rejoined memory holds a fresh
     copy ([Memory.stale_registers] empty).

   - [smr_recovery]: a consensus engine's replicated log, with
     checkpointing and state-transfer repair, under the full recovery
     nemesis; replicas decide their joined logs, so the oracle checks
     agreement over the whole log (validity is vacuous — the joined
     value is not literally any input). *)

open Rdma_sim
open Rdma_mem
open Rdma_mm
open Rdma_obs
open Rdma_consensus
open Rdma_reg

(* The repair predicate of every recovery workload: [Some detail] iff
   memory [mid] still holds stale registers of [region]. *)
let stale ~region cluster mid =
  match Memory.stale_registers (Cluster.memory cluster mid) ~region with
  | [] -> None
  | regs -> Some (Printf.sprintf "stale: %s" (String.concat "," regs))

(* ---------------- SWMR replication under memory rejoin ------------- *)

let swmr_region = "swmr"

let swmr_reg = "x"

(* Writer sweeps end well past the latest possible recovery under the
   scenario budget (crash < horizon, recovery < 1.5*horizon + 2). *)
let swmr_serve_until = 60.0

let swmr_stale = stale ~region:swmr_region

(* p0, the sole writer, replicates its value and then keeps sweeping
   [read_repair], so a replica that rejoined empty gets the value written
   back (and stamped fresh) once it is responding again.  Every other
   pid reads until a quorum read returns a value, which it decides; the
   loop is bounded so an (out-of-budget) unreadable run still quiesces
   and lets the watchdog report the liveness miss. *)
let swmr_recovery ~seed ~n ~m ~inputs ~faults ~byzantine ~prepare =
  let decisions : Report.decision option array = Array.make n None in
  let spawn cluster pid =
    Cluster.spawn cluster ~pid (fun ctx ->
        let h = Swmr.attach ~client:ctx.Cluster.client ~region:swmr_region in
        let now () = Engine.now ctx.Cluster.ctx_engine in
        let decide value =
          decisions.(pid) <- Some { Report.value; at = now () };
          Obs.event ctx.Cluster.ctx_obs
            ~actor:(Printf.sprintf "p%d" pid)
            (Event.Decide { pid; value })
        in
        if pid = 0 then begin
          ignore (Swmr.write h ~reg:swmr_reg inputs.(0));
          decide inputs.(0);
          while now () < swmr_serve_until do
            ignore (Swmr.read_repair h ~reg:swmr_reg);
            Engine.sleep 5.0
          done
        end
        else
          let rec loop () =
            match Swmr.read h ~reg:swmr_reg with
            | Some v -> decide v
            | None ->
                if now () < swmr_serve_until then begin
                  Engine.sleep 2.0;
                  loop ()
                end
          in
          loop ());
    fun () -> decisions.(pid)
  in
  let cluster, decided =
    Instance.run
      ~setup:(fun cluster ->
        Cluster.add_region_everywhere cluster ~name:swmr_region
          ~perm:(Permission.swmr ~writer:0 ~n)
          ~registers:[ swmr_reg ])
      ~byzantine ~prepare ~faults ~seed ~n ~m ~spawn ()
  in
  Report.of_cluster ~algorithm:"swmr-recovery" ~n ~m
    ~decisions:(Array.map Option.join decided)
    cluster

(* ---------- engine-agnostic SMR under the full recovery nemesis ----- *)

(* One workload, every consensus engine: the SMR harness's replicas
   serve a replicated log while 2 client processes (spawned beyond the
   nemesis-facing replicas, so the fault generator never targets them)
   submit commands and issue linearizable reads.  Clients enforce the
   real-time read invariant with a shared watermark: a read must never
   return less than the highest index any client saw acknowledged (or
   read) before the read was SENT.  A violation becomes that client's
   decision, which the agreement oracle then flags against the replicas'
   joined logs — this is exactly how the deliberately stale-lease velos
   fixture is caught.  Clients that never witnessed a violation are
   retired (crashed) before the replicas decide, so the liveness
   watchdog exempts them. *)

let smr_clients = 2

let smr_t_retire = 140.0 (* violation-free clients are retired *)

let smr_deadline = 400.0 (* oracle watchdog *)

let smr_stale (module E : Rdma_smr.Consensus_engine.S) = stale ~region:E.region

(* Interleave submits and linearizable reads, checking the shared
   real-time watermark.  Read seqs live in a disjoint space from submit
   seqs. *)
let watermark_client watermark : Rdma_smr.Harness.client =
 fun (module E) ~cfg ~decide cluster ~pid ->
  Cluster.spawn cluster ~pid (fun ctx ->
      let stale = ref None in
      let seq = ref 0 in
      while
        !stale = None
        && Engine.now ctx.Cluster.ctx_engine < Rdma_smr.Harness.t_stop
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
      Option.iter decide !stale);
  (* Retire the client before the decision point: crashed pids are
     exempt from the liveness watchdog, and a retired client that DID
     decide (a violation) still counts for agreement. *)
  Engine.schedule (Cluster.engine cluster) smr_t_retire (fun () ->
      if not (Cluster.is_crashed cluster pid) then
        Cluster.crash_process cluster pid)

let smr_recovery engine ~lease_violation ~seed ~n ~m ~inputs:_ ~faults
    ~byzantine ~prepare =
  let watermark = ref 0 in
  Rdma_smr.Harness.run ~engine ~lease_violation
    ~clients:(List.init smr_clients (fun _ -> watermark_client watermark))
    ~byzantine ~seed ~n ~m ~faults ~prepare ()

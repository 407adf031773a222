(* Fast & Robust (Section 4.3): the paper's headline Byzantine result.

   Weak Byzantine agreement with n ≥ 2fP + 1 processes and m ≥ 2fM + 1
   memories, 2-deciding in common executions (Theorem 4.9).

   Composition (Figure 6): run Cheap Quorum; if it aborts, feed each
   process's abort value — with its evidence — into Preferential Paxos,
   whose priorities (Definition 3) guarantee that any value a correct
   process already decided on the fast path is the only value the backup
   can decide (Lemma 4.8):

     T: values carrying a correct unanimity proof
     M: values carrying the leader's signature (but no proof)
     B: everything else

   A process that decided in Cheap Quorum still joins Preferential Paxos
   (with its decided value and strongest evidence) so that aborting
   processes can assemble their n − fP set-up quorum. *)

open Rdma_sim
open Rdma_mm
open Rdma_crypto
open Rdma_obs

(* {2 Definition 3 evidence} *)

let encode_evidence = function
  | Cheap_quorum.Unanimity proof -> Codec.join2 "T" proof
  | Cheap_quorum.Leader_signed s -> Codec.join2 "M" (Keychain.encode s)
  | Cheap_quorum.Bare -> Codec.join2 "B" ""

(* Verified classification: a claimed priority counts only if the
   attached evidence checks out — within this instance's namespace, so
   proofs and signatures from other instances are worthless here. *)
let classify ?(ns = "") chain ~n : Preferential_paxos.classify =
 fun ~value ~evidence ->
  match Codec.split2 evidence with
  | Some ("T", proof) when Cheap_quorum.verify_proof ~ns chain ~n proof = Some value ->
      2
  | Some ("M", sig_enc) -> (
      match Keychain.decode sig_enc with
      | Some s
        when Keychain.valid chain ~author:Cheap_quorum.leader
               (Cheap_quorum.value_payload ~ns value)
               s ->
          1
      | _ -> 0)
  | _ -> 0

type config = {
  cheap_quorum : Cheap_quorum.config;
  preferential : Preferential_paxos.config;
}

let default_config =
  {
    cheap_quorum = Cheap_quorum.default_config;
    preferential = Preferential_paxos.default_config;
  }

(* A configuration whose Cheap Quorum and NEB layers live in instance
   namespace [ns] — the slots of a BFT log use one per slot. *)
let config_with_ns ?(base = default_config) ns =
  {
    cheap_quorum = { base.cheap_quorum with Cheap_quorum.ns };
    preferential =
      { base.preferential with
        Preferential_paxos.backup =
          { base.preferential.Preferential_paxos.backup with
            Robust_backup.trusted =
              { Trusted.neb =
                  { base.preferential.Preferential_paxos.backup.Robust_backup.trusted
                      .Trusted.neb
                    with Neb.ns } } } };
  }

let ns_of cfg = cfg.cheap_quorum.Cheap_quorum.ns

type handle = { decision : Report.decision Ivar.t }

let decision h = h.decision

let setup_regions cluster ?(cfg = default_config) () =
  Cheap_quorum.setup_regions ~ns:(ns_of cfg) cluster;
  Robust_backup.setup_regions cluster ~cfg:cfg.preferential.Preferential_paxos.backup ()

let legal_change ~n = Cheap_quorum.legal_change ~n

(* Each process records its Cheap Quorum -> Preferential Paxos hand-off
   (the arrows of Figure 6) as a custom collector event of this name. *)
let handoff_event = "fr.handoff"

(* The per-process program: Cheap Quorum, then Preferential Paxos. *)
let program (ctx : _ Cluster.ctx) cfg ~input decision =
  let n = ctx.Cluster.cluster_n in
  let obs = ctx.Cluster.ctx_obs in
  let actor = Printf.sprintf "p%d" ctx.Cluster.pid in
  let outcome =
    Obs.with_span obs ~actor ~cat:"phase" "fr.cheap-quorum" (fun () ->
        Cheap_quorum.participate ctx ~cfg:cfg.cheap_quorum ~input ())
  in
  let value, evidence =
    match outcome with
    | Cheap_quorum.Decided { value; at; proof } ->
        if Ivar.try_fill decision { Report.value; at } then
          Obs.event obs ~actor
            (Event.Decide { pid = ctx.Cluster.pid; value });
        if ctx.Cluster.pid = Cheap_quorum.leader then
          Obs.gauge obs "sigs_at_fast_decision"
            (float_of_int
               (Obs.counter obs (Printf.sprintf "sigs.p%d" Cheap_quorum.leader)));
        (value, proof)
    | Cheap_quorum.Aborted { value; proof } -> (value, proof)
  in
  Obs.event obs ~actor
    (Event.Custom
       {
         name = handoff_event;
         detail =
           Printf.sprintf "%s -> preferential-paxos value=%s class=%s"
             (match outcome with
             | Cheap_quorum.Decided _ -> "cheap-quorum COMMIT"
             | Cheap_quorum.Aborted _ -> "cheap-quorum ABORT")
             value
             (match evidence with
             | Cheap_quorum.Unanimity _ -> "T"
             | Cheap_quorum.Leader_signed _ -> "M"
             | Cheap_quorum.Bare -> "B");
       });
  (* The backup phase runs in auxiliary fibers; open the span here and
     close it when the backup's decision lands (or never, if it doesn't —
     an unfinished span in the trace is the signal). *)
  let backup_span = Obs.span obs ~actor ~cat:"phase" "fr.preferential" in
  let pp =
    Preferential_paxos.attach ctx ~cfg:cfg.preferential
      ~classify:(classify ~ns:(ns_of cfg) ctx.Cluster.chain ~n)
      ~value ~evidence:(encode_evidence evidence) ()
  in
  Ivar.on_fill (Preferential_paxos.decision pp) (fun d ->
      Obs.finish obs backup_span;
      if Ivar.try_fill decision d then
        Obs.event obs ~actor
          (Event.Decide { pid = ctx.Cluster.pid; value = d.Report.value }))

(* Run one instance from inside an existing process fiber (blocking
   through the Cheap Quorum phase); the returned ivar fills on decision.
   The BFT log drives one of these per slot. *)
let attach ctx ?(cfg = default_config) ~input () =
  let decision = Ivar.create () in
  program ctx cfg ~input decision;
  decision

let spawn cluster ?(cfg = default_config) ~pid ~input () =
  let decision = Ivar.create () in
  Cluster.spawn cluster ~pid (fun ctx -> program ctx cfg ~input decision);
  { decision }

let run ?(cfg = default_config) ?(seed = 1) ?faults ?prepare
    ?(byzantine : Instance.byzantine = []) ~n ~m ~inputs () =
  let report, cluster =
    Instance.decide ~algorithm:"fast-robust" ~legal_change:(legal_change ~n)
      ~setup:(fun cluster -> setup_regions cluster ~cfg ())
      ~byzantine ?faults ?prepare ~seed ~n ~m ~inputs
      ~spawn:(fun cluster pid input ->
        let h = spawn cluster ~cfg ~pid ~input () in
        fun () -> Ivar.peek h.decision)
      ()
  in
  (report, List.map fst byzantine, cluster)

(* A Byzantine-tolerant replicated log: one Fast & Robust instance per
   slot (Theorem 4.9 composed sequentially).

   Every slot is a full weak-Byzantine-agreement instance living in its
   own namespace (regions and signature payloads are tagged per slot, so
   unanimity proofs and leader signatures cannot be replayed across
   slots).  In common executions the fixed leader appends to slot i with
   one signature and one replicated write — the Cheap Quorum fast path —
   and moves on: a Byzantine-tolerant log with 2-delay appends.  Under a
   Byzantine leader or asynchrony, each slot falls back to Preferential
   Paxos, and correct replicas still agree slot by slot.

   Tolerates fP < n/2 Byzantine processes and fM < m/2 memory crashes —
   the paper's bounds, applied per slot. *)

open Rdma_sim
open Rdma_mm
open Rdma_consensus

type config = {
  slots : int;
  base : Fast_robust.config; (* per-slot configuration template *)
}

let default_config = { slots = 3; base = Fast_robust.default_config }

let ns_of_slot i = Printf.sprintf "s%d." i

let slot_config cfg i = Fast_robust.config_with_ns ~base:cfg.base (ns_of_slot i)

(* One suffix-based policy covers every slot's leader region. *)
let legal_change ~n = Cheap_quorum.legal_change ~n

let setup_regions cluster cfg =
  for i = 0 to cfg.slots - 1 do
    Fast_robust.setup_regions cluster ~cfg:(slot_config cfg i) ()
  done

(* A replica appends through the slots strictly in order: slot i+1
   starts only once slot i has decided locally, so the applied log is
   always a dense prefix.  Returns the replica's per-slot decisions. *)
let spawn cluster ~cfg ~pid ~input_for =
  let decisions = Array.init cfg.slots (fun _ -> Ivar.create ()) in
  Cluster.spawn cluster ~pid (fun ctx ->
      for i = 0 to cfg.slots - 1 do
        let d =
          Fast_robust.attach ctx ~cfg:(slot_config cfg i) ~input:(input_for ~slot:i) ()
        in
        Ivar.on_fill d (fun v -> ignore (Ivar.try_fill decisions.(i) v));
        (* strict slot order *)
        ignore (Ivar.await decisions.(i))
      done);
  decisions

let run ?(cfg = default_config) ?(seed = 1) ?faults
    ?(byzantine : Instance.byzantine = []) ~n ~m ~input_for () =
  let cluster, decisions =
    Instance.run ~legal_change:(legal_change ~n)
      ~setup:(fun cluster -> setup_regions cluster cfg)
      ~byzantine ?faults ~seed ~n ~m
      ~spawn:(fun cluster pid ->
        let decisions =
          spawn cluster ~cfg ~pid ~input_for:(fun ~slot -> input_for ~pid ~slot)
        in
        fun () -> Array.map Ivar.peek decisions)
      ()
  in
  let reports =
    Array.init cfg.slots (fun slot ->
        Report.of_cluster
          ~algorithm:(Printf.sprintf "bft-log[%d]" slot)
          ~n ~m
          ~decisions:
            (Array.map (function Some ds -> ds.(slot) | None -> None) decisions)
          cluster)
  in
  (reports, List.map fst byzantine)

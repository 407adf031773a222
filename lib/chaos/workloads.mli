(** Recovery chaos workloads: scenario executors exercising the
    crash → recover → repair cycle (SWMR read-repair; an SMR engine's
    log with checkpoints and state-transfer), plus their repair
    predicates for the oracle. *)

open Rdma_mm
open Rdma_consensus

(** [Some detail] iff memory [mid] still has stale SWMR registers. *)
val swmr_stale : string Cluster.t -> int -> string option

(** p0 writes its input and keeps read-repairing; every other pid
    decides the first value a quorum read returns. *)
val swmr_recovery : Algorithms.exec

(** [Some detail] iff memory [mid] still has stale registers in the
    given engine's region. *)
val smr_stale :
  Rdma_smr.Consensus_engine.engine -> string Cluster.t -> int -> string option

(** Oracle watchdog deadline of the SMR scenarios. *)
val smr_deadline : float

(** Engine-agnostic SMR recovery workload: {!Rdma_smr.Harness.run} with
    [n] replicas under the crash/recovery/partition/weak-ordering
    nemesis and two clients doing client-side real-time read checking
    (a stale read becomes a decision the agreement oracle flags).
    [lease_violation] arms the deliberately broken velos stale-lease
    fixture. *)
val smr_recovery :
  Rdma_smr.Consensus_engine.engine -> lease_violation:bool -> Algorithms.exec

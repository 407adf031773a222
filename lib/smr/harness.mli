(** The SMR harness behind [rdma_agreement run smr] and the chaos
    scenarios [smr-<engine>-recovery] and [velos-stale-lease]: [n]
    replicas of the chosen engine plus the caller's client processes.
    Replicas decide their joined applied logs at a fixed virtual time;
    clients decide what their programs report — agreement across them
    checks the engine end to end under the run's fault schedule. *)

open Rdma_mm

(** Clients issue no new operation after this virtual time. *)
val t_stop : float

(** [client engine ~cfg ~decide cluster ~pid] spawns client process
    [pid], which reaches the replicas through [engine]'s client calls
    under [cfg] and reports its decision with [decide]. *)
type client =
  Consensus_engine.engine ->
  cfg:Consensus_engine.config ->
  decide:(string -> unit) ->
  string Cluster.t ->
  pid:int ->
  unit

(** [n] replicas, then one process per client in list order, through
    {!Rdma_consensus.Instance.run}.  [lease_violation] (default [false])
    arms the deliberately broken velos stale-lease fixture. *)
val run :
  engine:Consensus_engine.engine ->
  ?lease_violation:bool ->
  clients:client list ->
  ?byzantine:Rdma_consensus.Instance.byzantine ->
  seed:int ->
  n:int ->
  m:int ->
  faults:Rdma_consensus.Fault.t list ->
  prepare:(string Cluster.t -> unit) ->
  unit ->
  Rdma_consensus.Report.t

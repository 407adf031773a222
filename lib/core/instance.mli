(** The one run lifecycle shared by every algorithm, log, harness and
    chaos workload. *)

open Rdma_mm

(** Behaviours that replace the honest programs of the listed pids. *)
type byzantine = (int * (string Cluster.ctx -> unit)) list

(** Build a cluster of [n] processes and [m] memories, [setup] its
    regions, spawn each pid in increasing order ([spawn cluster pid]
    starts the honest program and returns how to read its result after
    the run; a pid in [byzantine] runs its behaviour instead), call
    [prepare], apply [faults], run to quiescence, re-raise fiber errors,
    read back each honest pid's result ([None] for Byzantine pids), and
    dispose the engine ({!Rdma_sim.Engine.dispose}), also when the run
    raised.  The cluster is returned for reading only: its collector,
    report and trace are as the run left them, and its engine must not
    run again. *)
val run :
  ?legal_change:Rdma_mem.Permission.legal_change ->
  ?setup:(string Cluster.t -> unit) ->
  ?byzantine:byzantine ->
  ?prepare:(string Cluster.t -> unit) ->
  ?faults:Fault.t list ->
  seed:int ->
  n:int ->
  m:int ->
  spawn:(string Cluster.t -> int -> unit -> 'r) ->
  unit ->
  string Cluster.t * 'r option array

(** One consensus instance: {!run} with [spawn cluster pid inputs.(pid)]
    reading back [pid]'s decision, reported under [algorithm].  Raises
    [Invalid_argument] naming [algorithm] unless [inputs] has [n]
    entries. *)
val decide :
  algorithm:string ->
  ?legal_change:Rdma_mem.Permission.legal_change ->
  ?setup:(string Cluster.t -> unit) ->
  ?byzantine:byzantine ->
  ?prepare:(string Cluster.t -> unit) ->
  ?faults:Fault.t list ->
  seed:int ->
  n:int ->
  m:int ->
  inputs:'i array ->
  spawn:(string Cluster.t -> int -> 'i -> unit -> Report.decision option) ->
  unit ->
  Report.t * string Cluster.t

(** Preferential Paxos (Algorithm 8, Lemma 4.7): a set-up phase in which
    every process adopts the highest-priority input among n − fP
    T-received ones, fP = ⌊(n−1)/2⌋, followed by Robust Backup(Paxos).
    The decision is always among the fP + 1 highest-priority inputs. *)

open Rdma_sim
open Rdma_mm

(** Verified priority: maps (value, evidence) to a priority; unverifiable
    evidence must get the bottom priority. *)
type classify = value:string -> evidence:string -> int

val encode_setup : value:string -> evidence:string -> string

type handle

val decision : handle -> Report.decision Ivar.t

(** Must run inside the process's program fiber.  [cfg] configures the
    Robust Backup phase (default {!Robust_backup.default_config}). *)
val attach :
  'm Cluster.ctx ->
  ?cfg:Robust_backup.config ->
  ?classify:classify ->
  value:string ->
  evidence:string ->
  unit ->
  handle

val run :
  ?cfg:Robust_backup.config ->
  ?classify:classify ->
  ?seed:int ->
  ?faults:Fault.t list ->
  ?prepare:(string Cluster.t -> unit) ->
  ?byzantine:(int * (string Cluster.ctx -> unit)) list ->
  n:int ->
  m:int ->
  inputs:(string * string) array ->
  unit ->
  Report.t * int list

(** Aligned Paxos (Section 5.2, Algorithms 9–15): processes and memories
    are equivalent agents; consensus survives any minority of the
    combined n + m agent set. *)

open Rdma_mm

(** How memory agents are driven (footnote 4):
    - [Permissions]: Protected-Memory-Paxos style (phase-2 write success
      certifies no rival);
    - [Disk]: Disk-Paxos style (static permissions, phase-2 read-back —
      permissions not needed, two extra delays). *)
type memory_mode = Permissions | Disk

type config = {
  mode : memory_mode;
  max_rounds : int;
  round_timeout : float;
}

val default_config : config

val run :
  ?cfg:config ->
  ?seed:int ->
  ?faults:Fault.t list ->
  ?prepare:(string Cluster.t -> unit) ->
  n:int ->
  m:int ->
  inputs:string array ->
  unit ->
  Report.t

(** Protected Memory Paxos (Algorithm 7): crash-tolerant consensus with
    n ≥ fP + 1 processes and m ≥ 2fM + 1 memories, 2-deciding in the
    common case thanks to dynamic permissions (Theorem 5.1). *)

open Rdma_sim
open Rdma_mm
open Rdma_mem

(** The single region spanning each memory. *)
val region : string

val slot_reg : int -> string

(** legalChange: a process may only take the exclusive-writer shape for
    itself (Algorithm 7 line 13). *)
val legal_change : Permission.legal_change

type config = {
  f_m : int option;  (** tolerated memory crashes; default ⌊(m−1)/2⌋ *)
}

val default_config : config

(** Create Region[i] on every memory with p0 as initial exclusive writer. *)
val setup_regions : 'm Cluster.t -> unit

type handle

val decision : handle -> Report.decision Ivar.t

val spawn :
  string Cluster.t -> ?cfg:config -> pid:int -> input:string -> unit -> handle

(** Build a cluster, run one consensus instance, report decisions and
    delay counts. *)
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

(** Protected Memory Paxos (Algorithm 7): crash-tolerant consensus with
    n ≥ fP + 1 processes and m ≥ 2fM + 1 memories, 2-deciding in the
    common case thanks to dynamic permissions (Theorem 5.1). *)

open Rdma_sim
open Rdma_mm
open Rdma_mem

(** The single region spanning each memory. *)
val region : string

(** The register of process [q]'s slot. *)
val slot_reg : int -> string

(** A slot's bytes: (minProp, accProp, value).  Aligned Paxos's memory
    agents and Disk Paxos's blocks use the same encoding. *)
val encode_slot : min_prop:int -> acc_prop:int -> value:string -> string

(** [None] for bytes {!encode_slot} did not produce. *)
val decode_slot : string -> (int * int * string) option

(** legalChange: a process may only take the exclusive-writer shape for
    itself (Algorithm 7 line 13). *)
val legal_change : Permission.legal_change

(** Create Region[i] on every memory with p0 as initial exclusive writer. *)
val setup_regions : 'm Cluster.t -> unit

type handle

val decision : handle -> Report.decision Ivar.t

val spawn : string Cluster.t -> pid:int -> input:string -> unit -> handle

(** Build a cluster, run one consensus instance, report decisions and
    delay counts.  The instance tolerates ⌊(m−1)/2⌋ memory crashes;
    [m = 0] raises [Invalid_argument] from the proposers. *)
val run :
  ?seed:int ->
  ?faults:Fault.t list ->
  ?prepare:(string Cluster.t -> unit) ->
  n:int ->
  m:int ->
  inputs:string array ->
  unit ->
  Report.t

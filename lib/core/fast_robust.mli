(** Fast & Robust (Section 4.3, Theorem 4.9): weak Byzantine agreement
    with n ≥ 2fP + 1 processes and m ≥ 2fM + 1 memories, 2-deciding in
    common executions.  Cheap Quorum first; on abort, Preferential Paxos
    with Definition 3 priorities (the composition of Figure 6). *)

open Rdma_sim
open Rdma_mm
open Rdma_crypto

val encode_evidence : Cheap_quorum.evidence -> string

(** Definition 3, verified within instance namespace [ns]: T (correct
    unanimity proof) = 2 > M (leader-signed) = 1 > B = 0. *)
val classify : ?ns:string -> Keychain.t -> n:int -> Preferential_paxos.classify

type config = {
  cheap_quorum : Cheap_quorum.config;
  preferential : Preferential_paxos.config;
}

val default_config : config

(** A configuration whose Cheap Quorum and NEB layers live in instance
    namespace [ns] — the slots of a BFT log use one per slot. *)
val config_with_ns : ?base:config -> string -> config

val ns_of : config -> string

type handle

val decision : handle -> Report.decision Ivar.t

(** Name of the [Event.Custom] each process records on the collector
    when Cheap Quorum hands off to Preferential Paxos.  Its detail reads
    [cheap-quorum COMMIT|ABORT -> preferential-paxos value=V class=C],
    where the class is the evidence kind: [T] unanimity proof, [M]
    leader-signed value, [B] bare value. *)
val handoff_event : string

val setup_regions : 'm Cluster.t -> ?cfg:config -> unit -> unit

val legal_change : n:int -> Rdma_mem.Permission.legal_change

(** Run one instance from inside an existing process fiber (blocking
    through the Cheap Quorum phase); the ivar fills on decision. *)
val attach :
  string Cluster.ctx -> ?cfg:config -> input:string -> unit -> Report.decision Ivar.t
[@@sim.yields]

val spawn :
  string Cluster.t -> ?cfg:config -> pid:int -> input:string -> unit -> handle

(** Run one instance; returns the report, the Byzantine pids, and the
    cluster (for inspecting its collector). *)
val run :
  ?cfg:config ->
  ?seed:int ->
  ?faults:Fault.t list ->
  ?prepare:(string Cluster.t -> unit) ->
  ?byzantine:(int * (string Cluster.ctx -> unit)) list ->
  n:int ->
  m:int ->
  inputs:string array ->
  unit ->
  Report.t * int list * string Cluster.t

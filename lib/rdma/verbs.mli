(** An ibverbs-flavoured facade over the simulated memory — the RDMA
    mechanics of Section 7: protection domains, memory-region
    registration with rkeys, queue pairs, and revocation by
    deregistration.  This layer models the trusted kernel. *)

open Rdma_sim

type access = Remote_read | Remote_write | Remote_read_write

type nic

type pd

(** A registered memory region with its rkey. *)
type mr

(** A connection of one remote process to the NIC within a protection
    domain. *)
type qp

val nic : Memory.t -> nic

val alloc_pd : nic -> pd

(** Register a region for the [grantees] at the given access level;
    mints the region's rkey. *)
val reg_mr :
  pd -> name:string -> registers:string list -> access:access -> grantees:int list -> mr

val rkey : mr -> string

(** Deregistration = instant revocation: future operations nak. *)
val dereg_mr : mr -> unit

(** Re-register with new access/grantees, minting a fresh rkey and
    invalidating the old one. *)
val rereg_mr : mr -> access:access -> grantees:int list -> mr

val create_qp : pd -> remote:int -> qp

(** RDMA read through a queue pair: checked against the protection
    domain, the registration, and the rkey, then against the region's
    permission for this caller. *)
val rdma_read : qp -> mr -> rkey:string -> reg:string -> Memory.read_result Ivar.t

val rdma_write :
  qp -> mr -> rkey:string -> reg:string -> string -> Memory.op_result Ivar.t

(** RDMA FLUSH (the ibverbs flush extension): completes once every prior
    operation of this queue pair has been applied at the remote memory.
    QP-scoped (no rkey needed).  Free under {!Ordering.Strict}. *)
val rdma_flush : qp -> Memory.op_result Ivar.t

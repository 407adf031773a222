(** Fault-tolerant SWMR registers replicated over crash-prone memories —
    the Section 4.1 construction (write-all / wait-majority; a read
    returns v iff exactly one distinct non-⊥ value appears among a
    majority of replicas, else ⊥). *)

open Rdma_mem

(** A process's handle on the replicated registers of one region. *)
type handle

val attach : client:Memclient.t -> region:string -> handle

(** [Ack] iff all responding memories (a majority) acked; [Nak] means some
    memory refused — write permission was revoked there. *)
val write : handle -> reg:string -> string -> Memory.op_result [@@sim.yields]

val read : handle -> reg:string -> string option [@@sim.yields]

(** Quorum read with write-back repair: when the responding majority
    agrees on one value v, every responding replica that returned ⊥, a
    divergent value, or a nak (e.g. a restarted memory whose register is
    stale) gets v written back, awaited, before v is returned.  The
    sweep waits up to a grace of 10 delays for {e every} replica
    rather than settling for the first majority: under a weak ordering
    model ({!Ordering}) response times spread out, and a
    fastest-majority sweep can race past the very replica it exists to
    repair on every sweep of a bounded window.  Fewer than a majority of
    responses within the grace returns ⊥.  Opt-in — [read] never repairs,
    because non-equivocating broadcast relies on divergent replicas
    staying observable.  Requires the caller to hold write permission on
    the region; repairs are counted on the ["swmr.repairs"] telemetry
    counter. *)
val read_repair : handle -> reg:string -> string option
[@@sim.yields]

(** Change the region's permission on every memory (majority-waited). *)
val change_permission : handle -> perm:Permission.t -> unit [@@sim.yields]

(** Process-side capability for accessing the shared memories.  Bound to
    one process id: a Byzantine program holding it can only act as
    itself. *)

open Rdma_sim

type t

val create : pid:int -> memories:Memory.t array -> t

val pid : t -> int

(** The shared telemetry collector ([None] when there are no memories). *)
val obs : t -> Rdma_obs.Obs.t option

val memory_count : t -> int

val mem : t -> int -> Memory.t

(** ⌊m/2⌋ + 1. *)
val majority : t -> int

(** {2 Single-memory blocking operations} *)

val write : t -> mem:int -> region:string -> reg:string -> string -> Memory.op_result
[@@sim.yields]

val read : t -> mem:int -> region:string -> reg:string -> Memory.read_result
[@@sim.yields]

val change_permission :
  t -> mem:int -> region:string -> perm:Permission.t -> Memory.op_result
[@@sim.yields]

(** {2 Parallel all-memories operations} *)

val write_all_async :
  t -> region:string -> reg:string -> string -> Memory.op_result Ivar.t array

val read_all_async : t -> region:string -> reg:string -> Memory.read_result Ivar.t array

(** Write to every memory, wait for a majority of responses; [Ack] iff
    all received responses were acks. *)
val write_quorum : t -> region:string -> reg:string -> string -> Memory.op_result
[@@sim.yields]

(** Read from every memory, wait for a majority of responses; returns
    [(memory index, result)] pairs. *)
val read_quorum :
  t -> region:string -> reg:string -> (int * Memory.read_result) list
[@@sim.yields]

val change_permission_quorum :
  t -> region:string -> perm:Permission.t -> (int * Memory.op_result) list
[@@sim.yields]

(** {2 Fences}

    The explicit flush of the weak ordering models ({!Ordering}): a
    fence on a memory completes once every op this client issued there
    before it has been applied.  Under {!Ordering.Strict} both entry
    points short-circuit — no span, no suspension, no engine event — so
    unconditional fences cost nothing in the strict model. *)

val fence : t -> mem:int -> Memory.op_result [@@sim.yields]

(** One fence per memory; awaiting them all means the client's prior
    writes are {e applied} — not merely acked — at every memory. *)
val fence_all_async : t -> Memory.op_result Ivar.t array

(** {2 State transfer} *)

(** Blocking batched write of several registers of one region to a single
    memory ([None] stores ⊥) — the snapshot-installation primitive. *)
val write_many :
  t ->
  mem:int ->
  region:string ->
  values:(string * string option) list ->
  Memory.op_result
[@@sim.yields]

(** Non-equivocating broadcast (Algorithm 2, Definition 1) over SWMR
    regions replicated on crash-prone memories. *)

open Rdma_mm
open Rdma_crypto

(** The SWMR region owned by process [p] within instance namespace
    [ns]. *)
val region_of : ?ns:string -> int -> string

(** slots[owner, k, src] — [owner]'s copy of the k-th message of [src],
    in the default namespace. *)
val slot_reg : owner:int -> k:int -> src:int -> string

(** The byte string a broadcaster signs: (ns, k, m) — namespaced so
    signatures cannot be replayed across instances. *)
val slot_payload : ?ns:string -> k:int -> string -> string

val encode_slot : k:int -> msg:string -> signature:Keychain.signature -> string

type config = {
  ns : string;  (** instance namespace; [""] for standalone use *)
  max_seq : int;  (** sequence numbers each broadcaster may use *)
  poll_interval : float;
  give_up_at : float;  (** virtual time after which the poller stops *)
}

val default_config : config

type t

(** Create all NEB regions on every memory. *)
val setup_regions : 'm Cluster.t -> ?ns:string -> max_seq:int -> unit -> unit

(** Build one process's instance; [deliver] is invoked (in the poller
    fiber) for every delivered message. *)
val create :
  'm Cluster.ctx ->
  ?cfg:config ->
  deliver:(k:int -> msg:string -> src:int -> unit) ->
  unit ->
  t

(** Stop the delivery daemon (so the simulation can quiesce). *)
val stop : t -> unit

(** broadcast(k, m) with auto-incremented k.  Blocking: one replicated
    write (2 delays).  Raises [Invalid_argument] past [max_seq]. *)
val broadcast : t -> string -> unit [@@sim.yields]

val spawn_poller : 'm Cluster.ctx -> t -> unit

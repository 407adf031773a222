(** Cheap Quorum (Algorithms 4 and 5): the 2-deciding Byzantine fast
    path — one replicated write, one signature — with panic mode and
    Definition 3 abort evidence.  Not a complete consensus algorithm:
    its outputs feed Fast & Robust. *)

open Rdma_mm
open Rdma_mem
open Rdma_crypto

val leader : int

val leader_region : string

val leader_value_reg : string

(** The byte string processes sign: the proposed value under a protocol
    tag and instance namespace (so signatures and proofs cannot be
    replayed across instances). *)
val value_payload : ?ns:string -> string -> string

val encode_leader_value : value:string -> sig_l:Keychain.signature -> string

val encode_proof : value:string -> sigs:(int * Keychain.signature) list -> string

(** verifyProof: [Some v] iff the proof carries n distinct valid
    countersignatures on the same value v (within namespace [ns]). *)
val verify_proof : ?ns:string -> Keychain.t -> n:int -> string -> string option

(** The only legal permission change (Algorithm 5 line 3): make the
    leader region read-only for everybody. *)
val legal_change : n:int -> Permission.legal_change

val setup_regions : ?ns:string -> 'm Cluster.t -> unit

type evidence =
  | Unanimity of string  (** T: encoded unanimity proof *)
  | Leader_signed of Keychain.signature  (** M *)
  | Bare  (** B *)

type outcome =
  | Decided of { value : string; at : float; proof : evidence }
  | Aborted of { value : string; proof : evidence }

type config = {
  ns : string;  (** instance namespace; [""] for standalone use *)
  fast_timeout : float;
      (** upper bound on common-case delays (footnote 3) *)
}

val default_config : config

(** Run one process's participation to its outcome (blocking; call from
    the process's program fiber). *)
val participate :
  string Cluster.ctx -> ?cfg:config -> input:string -> unit -> outcome
[@@sim.yields]

(** Robust Backup (Definition 2, Theorem 4.4): crash-tolerant Paxos with
    its transport replaced by T-send/T-receive becomes weak Byzantine
    agreement for n ≥ 2fP + 1 processes and m ≥ 2fM + 1 memories. *)

open Rdma_sim
open Rdma_mm

(** The trusted transport: point-to-point sends become non-equivocating
    broadcasts tagged with the destination. *)
module T_transport : sig
  type t = {
    me : int;
    n : int;
    trusted : Trusted.t;
    inbox : (int * string) Mailbox.t;
  }

  val me : t -> int

  val n : t -> int

  val send : t -> dst:int -> string -> unit

  (** dst = −1 addresses everyone. *)
  val broadcast : t -> string -> unit

  val recv : t -> int * string

  val recv_timeout : t -> float -> (int * string) option
end

module Paxos_bft : module type of Paxos.Make (T_transport)

(** The tag of Preferential Paxos set-up messages on the trusted
    transport (validated separately from Paxos messages). *)
val setup_tag : string

type config = {
  paxos : Paxos.config;
  trusted : Neb.config;  (** the trusted channel's broadcast *)
  validate : bool;  (** replay-check histories *)
}

val default_config : config

type handle = {
  decision : Report.decision Ivar.t;
  transport : T_transport.t;
}

val decision : handle -> Report.decision Ivar.t

(** Build the trusted channel for one process; [route] gets first look at
    every delivered application message and returns true to consume it. *)
val make_channel :
  'm Cluster.ctx ->
  ?cfg:config ->
  ?route:(src:int -> msg:string -> bool) ->
  unit ->
  T_transport.t

(** Paxos over a trusted channel: spawn the three Paxos roles on the
    transport and stop its channel once they decide.  Returns the Paxos
    decision. *)
val spawn_paxos :
  'm Cluster.ctx ->
  cfg:config ->
  T_transport.t ->
  input:string ->
  Report.decision Ivar.t
[@@sim.yields]

(** Trusted channel + the three Paxos roles, from inside the process's
    program fiber. *)
val attach : 'm Cluster.ctx -> ?cfg:config -> input:string -> unit -> handle
[@@sim.yields]

val setup_regions : 'm Cluster.t -> ?cfg:config -> unit -> unit

(** Run one weak-Byzantine-agreement instance.  [byzantine] replaces
    chosen processes' programs with adversarial behaviours; returns the
    report and the Byzantine pids (to exclude from agreement checks). *)
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
  Report.t * int list

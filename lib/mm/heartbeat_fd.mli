(** A heartbeat-based implementation of the Ω leader oracle: after GST,
    every correct process converges on the lowest-id correct process.
    Shows the model's liveness assumption is implementable from its own
    primitives.  Heartbeats go out every 2 delays, and a peer silent for
    more than 7 is suspected. *)

open Rdma_sim
open Rdma_net

type config = {
  run_until : float;  (** virtual time at which the daemon stops *)
}

val default_config : config

type t

(** This process's current Ω output: the lowest-id unsuspected process. *)
val leader : t -> int

val suspects : t -> int -> bool

(** Leadership changes as seen by this process, oldest first. *)
val history : t -> (float * int) list

val spawn :
  engine:Engine.t -> ep:unit Network.endpoint -> n:int -> ?cfg:config -> unit -> t

(** A heartbeat-based implementation of the Ω leader oracle: after GST,
    every correct process converges on the lowest-id correct process.
    Shows the model's liveness assumption is implementable from its own
    primitives.  Heartbeats go out every 2 delays, a peer silent for
    more than 7 is suspected, and the daemon stops at virtual time
    120. *)

open Rdma_sim
open Rdma_net

type t

(** This process's current Ω output: the lowest-id unsuspected process. *)
val leader : t -> int

val suspects : t -> int -> bool

(** Leadership changes as seen by this process, oldest first. *)
val history : t -> (float * int) list

val spawn : engine:Engine.t -> ep:unit Network.endpoint -> n:int -> unit -> t

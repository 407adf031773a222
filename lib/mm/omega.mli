(** The Ω leader oracle — the standard liveness assumption (Section 3). *)

open Rdma_sim

type t

val create : engine:Engine.t -> initial:int -> t

(** The currently trusted leader. *)
val leader : t -> int

(** Leadership changes as [(time, leader)] pairs, oldest first. *)
val history : t -> (float * int) list

val set_leader : t -> int -> unit

(** Block the calling fiber until this process is leader
    (Algorithm 7 line 9). *)
val wait_until_leader : t -> me:int -> unit [@@sim.yields]

(** One-shot callback at the first leadership change to a pid satisfying
    [want] (not retroactive). *)
val on_change : t -> want:(int -> bool) -> (unit -> unit) -> unit

(** Disk Paxos (Gafni & Lamport) — the static-permission shared-memory
    baseline: n ≥ fP + 1, m ≥ 2fM + 1, but 4-deciding (the phase-2
    read-back that dynamic permissions remove; Section 5.1). *)

open Rdma_mm

type config = {
  f_m : int option;
  max_rounds : int;
  poll_interval : float;  (** follower poll of decided blocks *)
  max_polls : int;
}

val default_config : config

val run :
  ?cfg:config ->
  ?seed:int ->
  ?faults:Fault.t list ->
  ?prepare:(string Cluster.t -> unit) ->
  n:int ->
  m:int ->
  inputs:string array ->
  unit ->
  Report.t

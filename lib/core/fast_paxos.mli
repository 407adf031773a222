(** Fast Paxos — the message-passing 2-deciding baseline (n ≥ 2fP + 1):
    fast quorum = all n acceptors (e = 0), classic recovery under
    failures. *)

open Rdma_mm

type config = {
  proposer_stagger : float;
      (** followers hold their fast proposal back this long per pid *)
}

val run :
  ?cfg:config ->
  ?seed:int ->
  ?faults:Fault.t list ->
  ?prepare:(string Cluster.t -> unit) ->
  n:int ->
  inputs:string array ->
  unit ->
  Report.t

(** A Byzantine-tolerant replicated log: one Fast & Robust instance per
    slot, each in its own namespace.  Common-case appends take the
    2-delay, one-signature fast path; Byzantine leaders or asynchrony
    push individual slots onto the Preferential Paxos backup.  Tolerates
    fP < n/2 Byzantine processes and fM < m/2 memory crashes. *)

open Rdma_mm
open Rdma_consensus

type config = {
  slots : int;
  base : Fast_robust.config;  (** per-slot configuration template *)
}

val default_config : config

val ns_of_slot : int -> string

(** Run a [cfg.slots]-slot log; returns one report per slot and the
    Byzantine pids. *)
val run :
  ?cfg:config ->
  ?seed:int ->
  ?faults:Fault.t list ->
  ?byzantine:(int * (string Cluster.ctx -> unit)) list ->
  n:int ->
  m:int ->
  input_for:(pid:int -> slot:int -> string) ->
  unit ->
  Report.t array * int list

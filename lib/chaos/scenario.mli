(** The chaos scenario registry: one entry per algorithm, binding its
    fault-model budget, phase-span names, Byzantine attack pool, oracle
    deadline, and an executor that runs one generated case. *)

open Rdma_mm
open Rdma_consensus

(** The algorithm table's exec, called with the scenario's own [n] and
    [m]. *)
type exec = Algorithms.exec

type t = {
  name : string;
  descr : string;
  n : int;
  m : int;
  budget : Nemesis.budget;
  phases : string list;  (** span names the telemetry adversary may hook *)
  attack_pool : (string * (string Cluster.ctx -> unit)) list;
  max_byz : int;
  deadline : float;  (** oracle watchdog deadline, in virtual delays *)
  repair : (string Cluster.t -> int -> string option) option;
      (** evaluated at the watchdog for every rejoined, live memory:
          [Some detail] = the protocol failed to re-replicate onto it *)
  validity : bool;
      (** [false] when decisions are derived values (e.g. a joined
          multi-instance log) that are not literally any input *)
  exec : exec;
}

val all : t list

val find : string -> t option
[@@simlint.allow
  "Y2 find only returns the scenario record; referencing the workload \
   table marks it may-yield under the reference-marks-encloser \
   over-approximation (DESIGN.md §13), but the run closures are never \
   invoked here"]

val names : unit -> string list
[@@simlint.allow
  "Y2 names maps over the scenario table without invoking any run \
   closure; same over-approximation as find"]

val attack : t -> string -> (string Cluster.ctx -> unit) option

(** The fixed per-run proposal vector ["v0"; "v1"; ...]. *)
val inputs : t -> string array

type outcome = {
  case : Nemesis.case;
  report : Report.t option;  (** [None] when the run aborted *)
  violations : Oracle.violation list;
  fired : (float * string) list;  (** adversary actions, with fire times *)
}

val passed : outcome -> bool

(** Run one case deterministically: install the oracle and telemetry
    triggers, execute, and return the verdict.  [?prepare] composes an
    extra hook run after the standard installation — callers use it to
    capture the cluster's collector ({!Cluster.obs}) for metrics
    aggregation without the outcome itself carrying live state. *)
val run : ?prepare:(string Cluster.t -> unit) -> t -> Nemesis.case -> outcome

(** Generate the case for [seed] under this scenario's constraints.
    [over_budget] lifts the crash budget past the fault model (expected
    violations — shrinker fodder).  [ordering] forces the memory-ordering
    model without consuming any draws, so the rest of the schedule stays
    byte-identical to the strict run of the same seed. *)
val generate :
  t ->
  ?adversary:bool ->
  ?byz:bool ->
  ?over_budget:bool ->
  ?ordering:Rdma_mem.Ordering.mode ->
  seed:int ->
  unit ->
  Nemesis.case

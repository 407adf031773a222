(** Uniform run reports: per-process decisions with virtual decision times
    (= delay counts) and the run's costs, read from the cluster's
    telemetry collector. *)

type decision = { value : string; at : float }

(** The one decide step: fill the ivar with [value] at [Engine.now].
    Only if it was empty, record an [Event.Decide] on [p<pid>]'s track;
    a second decide changes nothing. *)
val decide :
  Rdma_sim.Engine.t -> pid:int -> decision Rdma_sim.Ivar.t -> string -> unit

(** One protocol phase's latency distribution over the run (times in
    delays), distilled from the spans recorded under [~cat:"phase"]. *)
type phase = {
  phase : string;
  count : int;
  p50 : float;
  p90 : float;
  p99 : float;
  worst : float;
}

type t = {
  algorithm : string;
  n : int;
  m : int;
  decisions : decision option array;
  messages : int;
  mem_ops : int;
  signatures : int;
  sim_steps : int;
  named : (string * int) list;
      (** the collector's counters and gauges (as ints), sorted *)
  phases : phase list;  (** per-phase latency breakdown, sorted by name *)
}

(** Snapshot a finished run from its cluster's collector: [messages],
    [mem_ops] and [signatures] are the [net.msgs.sent], [mem.ops] and
    [crypto.signs] counters, {!field-phases} the [~cat:"phase"]
    histograms, [sim_steps] the engine's step count. *)
val of_cluster :
  algorithm:string ->
  n:int ->
  m:int ->
  decisions:decision option array ->
  'm Rdma_mm.Cluster.t ->
  t

(** Look up a named counter or gauge (0 if absent). *)
val named : t -> string -> int

val decided_count : t -> int

(** Uniform agreement among deciders outside [ignore_pids]. *)
val agreement_ok : ?ignore_pids:int list -> t -> bool

(** Every decision (outside [ignore_pids]) is some process's input. *)
val validity_ok : ?ignore_pids:int list -> t -> inputs:string array -> bool

(** Earliest decision time — the paper's "k-deciding" metric. *)
val first_decision_time : t -> float option

val last_decision_time : t -> float option

val decision_value : t -> string option

val pp : Format.formatter -> t -> unit

(** The per-phase latency table ({!field-phases}). *)
val pp_phases : Format.formatter -> t -> unit

(** The exploration driver: seeded batches of chaos cases, shrinking
    every violation to a minimal repro artifact.  Deterministic: the
    batch verdict, artifacts, and aggregate metrics are a pure function
    of (scenario, options) — [jobs] only changes wall-clock, never
    output.  Case runs are self-contained {!Rdma_sim.Task}s scheduled
    on a {!Rdma_sim.Pool}; shrink steps evaluate their candidate
    batches on the same pool. *)

open Rdma_obs

type options = {
  runs : int;
  seed : int;  (** base seed; case [i] uses [seed + i] *)
  adversary : bool;  (** arm telemetry-driven triggers *)
  byz : bool;  (** draw Byzantine processes from the scenario pool *)
  over_budget : bool;  (** lift the crash budget past the fault model *)
  jobs : int;  (** worker domains for case runs and shrink batches *)
  ordering : Rdma_mem.Ordering.mode option;
      (** force every case onto this memory-ordering model; [None] = the
          scenario budget's [orderings] pool decides.  Forcing consumes
          no generator draws, so the rest of each schedule is
          byte-identical to the strict batch of the same seeds *)
}

val default_options : options

type failure = {
  outcome : Scenario.outcome;
  repro : Repro.t;
  shrink_probes : int;
}

type batch = {
  scenario : string;
  options : options;
  passed : int;
  failures : failure list;  (** in seed order *)
  metrics : Obs.t;
      (** the primary runs' histograms/counters, merged in seed order
          (shrink probes excluded) — identical at any [jobs] *)
}

val total : batch -> int

(** Shrink one violating outcome to a repro artifact; returns the probe
    count too, at most 200.  [jobs] parallelizes each shrink step's
    candidate batch without changing the trajectory or the probe
    count. *)
val shrink : ?jobs:int -> Scenario.t -> Scenario.outcome -> Repro.t * int

val explore : ?options:options -> Scenario.t -> batch

(** Rebuild the artifact's exact case and run it. *)
val replay : Scenario.t -> Repro.t -> Scenario.outcome

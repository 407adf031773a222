(* Chaos exploration over every scenario without Byzantine attacks,
   the adversary's telemetry triggers armed.  [velos-stale-lease] is
   broken by design: each of its schedules must be flagged, which also
   keeps the shrinker on the measured path. *)

open Rdma_chaos

let scenarios = List.filter (fun s -> s.Scenario.attack_pool = []) Scenario.all

let must_fail s = s.Scenario.name = "velos-stale-lease"

(* OPEN BUG, worked around here: under the weak memory models, state
   transfer onto a rejoined memory can miss the oracle's deadline ("not
   re-replicated at the watchdog"): about 6 in 10000 swmr-recovery
   schedules, 1 in 20000 pmp-multi-recovery ones and 1 in 5000
   smr-velos-recovery ones (e.g. swmr-recovery seed 1501090,
   smr-velos-recovery seed 4500147).  Until it is fixed, scenarios that
   check repair run under the strict model, so this workload does not
   draw the weak models for them; the others keep drawing from the
   budget's pool.  The fix deletes this function.  test_e2e keeps a
   reproducer that fails once the bug is gone, as a reminder. *)
let ordering s =
  match s.Scenario.repair with
  | Some _ -> Some Rdma_mem.Ordering.Strict
  | None -> None

(* Scenarios whose decision is a consensus value; the others decide a
   joined log at a fixed virtual time, which says nothing about how
   fast the protocol agreed. *)
let decides_a_value s = s.Scenario.validity

type schedule = {
  scenario : string;
  case_seed : int;
  last : float option;  (** every correct process decided *)
  timed : bool;  (** [last] is a protocol latency ({!decides_a_value}) *)
  violations : string list;  (** oracle verdicts *)
  failures : string list;  (** output checks that failed *)
  shrink_probes : int;
  events : int;
  heap_peak : int;
}

(* One schedule through the public pieces [Explore.explore] composes:
   generate the case, run it under the oracle, shrink a violation. *)
let schedule s ~seed =
  let case =
    Rdma_obs.Prof.scope "chaos.generate" (fun () ->
        Scenario.generate s ~adversary:true ?ordering:(ordering s) ~seed ())
  in
  let obs = ref None in
  let outcome =
    Rdma_obs.Prof.scope "chaos.run" (fun () ->
        Scenario.run s case ~prepare:(fun cluster ->
            obs := Some (Rdma_mm.Cluster.obs cluster)))
  in
  let violations = List.map Oracle.violation_to_string outcome.Scenario.violations in
  let shrink_probes, shrunk_still_fails =
    if violations = [] then (0, true)
    else
      let repro, probes =
        Rdma_obs.Prof.scope "chaos.shrink" (fun () ->
            Explore.shrink ~jobs:1 s outcome)
      in
      (probes, repro.Repro.violations <> [])
  in
  let failures =
    if must_fail s then
      if violations = [] then [ "stale-lease schedule not flagged" ] else []
    else violations
  in
  let report = outcome.Scenario.report in
  {
    scenario = s.Scenario.name;
    case_seed = case.Nemesis.case_seed;
    last = Option.bind report Rdma_consensus.Report.last_decision_time;
    timed = decides_a_value s;
    violations;
    failures =
      (failures
      @ if shrunk_still_fails then [] else [ "shrunk schedule no longer fails" ]);
    shrink_probes;
    events =
      (match report with Some r -> r.Rdma_consensus.Report.sim_steps | None -> 0);
    heap_peak = (match !obs with Some o -> Pct.heap_peak o | None -> 0);
  }

(* One batch per scenario through [Explore.explore] at [jobs = 1]:
   returns (schedules, failed checks described, simulator events). *)
let round ~base ~runs =
  List.fold_left
    (fun (ops, failed, events) s ->
      let options =
        {
          Explore.default_options with
          runs;
          seed = base;
          adversary = true;
          jobs = 1;
          ordering = ordering s;
        }
      in
      let batch = Explore.explore ~options s in
      let bad =
        if must_fail s then
          if batch.Explore.passed = 0 then []
          else
            [
              Printf.sprintf "%s seeds %d..%d: %d schedules not flagged" s.Scenario.name
                base (base + runs - 1) batch.Explore.passed;
            ]
        else
          List.map
            (fun (f : Explore.failure) ->
              Printf.sprintf "%s seed %d: %s" s.Scenario.name
                f.outcome.Scenario.case.Nemesis.case_seed
                (String.concat "; " f.repro.Repro.violations))
            batch.Explore.failures
      in
      let popped =
        Option.value ~default:0
          (List.assoc_opt "prof.sim.events.popped"
             (Rdma_obs.Obs.counters batch.Explore.metrics))
      in
      (ops + Explore.total batch, failed @ bad, events + popped))
    (0, [], 0) scenarios

(* The exploration driver: generate a batch of cases from consecutive
   seeds, run each against the scenario, and on any violation shrink the
   schedule to a minimal counterexample and package it as a repro
   artifact.  The whole batch is a pure function of (scenario, options,
   base seed) — including [jobs]: two invocations with the same
   arguments produce the same verdicts, the same artifacts, the same
   aggregate metrics, byte for byte, at any [-j].

   Structure for parallelism: each case run is a self-contained
   {!Rdma_sim.Task} — the task builds its case from its own seed, runs
   it on a fresh cluster, and returns the outcome plus the cluster's
   collector.  There are no shared accumulators; the batch verdict and
   the metrics aggregate are the pool's submission-ordered fold, which
   merges each case's collector and drops it as the result arrives, so
   a batch holds O(jobs) cases, not O(runs).  Shrinking runs per failure
   in seed order once the fold is done, with each delta-debugging
   step's candidate batch evaluated on the pool. *)

open Rdma_sim
open Rdma_obs
open Rdma_mm

type options = {
  runs : int;
  seed : int;  (* base seed; case i uses seed + i *)
  adversary : bool;  (* arm telemetry-driven triggers *)
  byz : bool;  (* draw Byzantine processes from the scenario pool *)
  over_budget : bool;  (* lift the crash budget past the fault model *)
  jobs : int;  (* worker domains for case runs and shrink batches *)
  ordering : Rdma_mem.Ordering.mode option;
      (* force every case onto this memory-ordering model; None = let
         the scenario budget's [orderings] pool decide (strict for all
         registered scenarios today) *)
}

let default_options =
  {
    runs = 50;
    seed = 1;
    adversary = false;
    byz = false;
    over_budget = false;
    jobs = 1;
    ordering = None;
  }

type failure = {
  outcome : Scenario.outcome;
  repro : Repro.t;
  shrink_probes : int;
}

type batch = {
  scenario : string;
  options : options;
  passed : int;
  failures : failure list;  (* in seed order *)
  metrics : Obs.t;  (* seed-ordered merge of the primary runs' metrics *)
}

let total batch = batch.passed + List.length batch.failures

(* Re-run [case] with a substitute fault schedule; used by the shrinker
   as its (deterministic) failure probe and by [replay]. *)
let run_with_faults scenario (case : Nemesis.case) faults =
  Scenario.run scenario { case with Nemesis.faults }

(* A schedule "still fails" if the re-run yields any violation at all —
   not necessarily the same one: for a minimal counterexample any
   invariant breakage keeps the schedule interesting. *)
let still_fails scenario case faults =
  (run_with_faults scenario case faults).Scenario.violations <> []

let shrink ?(jobs = 1) scenario (outcome : Scenario.outcome) =
  let case = outcome.Scenario.case in
  (* One delta-debugging step's candidates as one pool batch.  Every
     probe is a full deterministic re-run seeded by the case alone, so
     the verdict vector — and with it the shrink trajectory and probe
     count — is independent of [jobs]. *)
  let eval candidates =
    candidates
    |> List.mapi (fun j faults ->
           Task.make
             ~label:
               (Printf.sprintf "%s/seed%d/shrink-candidate%d"
                  scenario.Scenario.name case.Nemesis.case_seed j)
             ~seed:case.Nemesis.case_seed
             (fun ~seed:_ -> still_fails scenario case faults))
    |> Pool.run_exn ~jobs
  in
  let minimized, probes = Shrink.minimize ~eval case.Nemesis.faults in
  (* The minimized schedule's outcome (re-run once more so the artifact
     records the violations of what it actually ships). *)
  let final = run_with_faults scenario case minimized in
  let repro =
    Repro.of_outcome ~scenario:scenario.Scenario.name ~minimized
      { final with Scenario.case = outcome.Scenario.case }
  in
  (repro, probes)

(* One case as a self-contained task: build the case from the task's
   own seed, run it on a fresh cluster, and hand back the outcome plus
   that cluster's collector (captured via the prepare hook) so the
   caller can fold metrics in submission order.  Everything mutable the
   task touches is created inside the task. *)
let case_task scenario (options : options) i =
  Task.make
    ~label:(Printf.sprintf "%s/case%d" scenario.Scenario.name i)
    ~seed:(options.seed + i)
    (fun ~seed ->
      let case =
        Scenario.generate scenario ~adversary:options.adversary
          ~byz:options.byz ~over_budget:options.over_budget
          ?ordering:options.ordering ~seed ()
      in
      let obs = ref None in
      (* Each primary run carries its own work profiler; its
         deterministic op-counter totals are folded into the case's
         collector (as [prof.*] counters), so the batch metrics report
         chaos cost — hashing, memory ops, events — per schedule batch.
         Shrink probes install no profiler, so (like the rest of the
         metrics) they contribute nothing. *)
      let prof = Prof.create () in
      let outcome =
        Prof.with_profiler prof (fun () ->
            Scenario.run scenario case ~prepare:(fun cluster ->
                obs := Some (Cluster.obs cluster)))
      in
      Option.iter (fun o -> Obs.absorb_prof o prof) !obs;
      (outcome, !obs))

let explore ?(options = default_options) scenario =
  (* Submission-ordered fold: verdicts and the metrics merge walk the
     results in seed order, so the batch is identical at any [jobs].
     A failing outcome is kept for shrinking; the collector is merged
     and dropped. *)
  let metrics = Obs.create () in
  let passed, failed =
    Pool.fold ~jobs:options.jobs
      (Seq.init options.runs (case_task scenario options))
      ~init:(0, [])
      ~f:(fun (passed, failed) result ->
        let outcome, obs =
          match result with Ok r -> r | Error e -> raise e.Pool.exn
        in
        Option.iter (fun o -> Obs.merge ~into:metrics o) obs;
        if Scenario.passed outcome then (passed + 1, failed)
        else (passed, outcome :: failed))
  in
  (* Shrink in seed order.  Shrink probes do not contribute to
     [metrics]. *)
  let failures =
    List.map
      (fun outcome ->
        let repro, shrink_probes = shrink ~jobs:options.jobs scenario outcome in
        { outcome; repro; shrink_probes })
      (List.rev failed)
  in
  { scenario = scenario.Scenario.name; options; passed; failures; metrics }

(* Replay a repro artifact: rebuild the exact case and run it.  Returns
   the outcome; the caller renders the (deterministic) verdict. *)
let replay scenario (repro : Repro.t) = Scenario.run scenario (Repro.case repro)

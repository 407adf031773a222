(* The chaos scenario registry: one entry per algorithm, carrying the
   algorithm's fault model as a nemesis budget, the phase-span names its
   telemetry adversary may hook, the Byzantine attack pool it composes
   with, and the oracle deadline for its termination watchdog.

   [run] executes one generated case: it installs the oracle and the
   trigger executor through the algorithm's [prepare] hook, runs the
   instance, and returns the report plus the oracle's verdict.  All
   randomness comes from the case seed, so outcomes replay bit-for-bit. *)

open Rdma_sim
open Rdma_mm
open Rdma_obs
open Rdma_consensus

type exec = Algorithms.exec

type t = {
  name : string;
  descr : string;
  n : int;
  m : int;
  budget : Nemesis.budget;
  phases : string list;
  attack_pool : (string * (string Cluster.ctx -> unit)) list;
  max_byz : int;
  deadline : float;
  repair : (string Cluster.t -> int -> string option) option;
  validity : bool;
  exec : exec;
}

(* Every registered scenario held its full chaos grid (>= 100 schedules
   per mode, see EXPERIMENTS.md) under both stock weak ordering models,
   so the nemesis draws them routinely: roughly a third of generated
   schedules run strict, a third completion-lag, a third reordered-qp. *)
let base_orderings =
  [ Rdma_mem.Ordering.completion_lag; Rdma_mem.Ordering.reorder_qp ]

let base_budget =
  {
    Nemesis.horizon = 25.0;
    max_process_crashes = 1;
    max_memory_crashes = 0;
    max_machine_crashes = 0;
    max_leader_flaps = 2;
    allow_partition = true;
    allow_latency = true;
    max_gst = 15.0;
    max_extra = 8.0;
    max_faults = 5;
    max_recoveries = 0;
    orderings = base_orderings;
  }

(* Byzantine behaviours by name (the repro artifact stores names). *)
let byz_silent = ("silent", fun (_ : string Cluster.ctx) -> ())

let byz_cq_equivocator =
  ("cq-equivocating-leader", Attacks.cq_equivocating_leader ~v1:"black" ~v2:"white")

let byz_cq_silent = ("cq-silent-leader", Attacks.cq_silent_leader)

let byz_priority_liar = ("pp-priority-liar", Attacks.pp_priority_liar ~value:"liar")

let byz_rb_spurious = ("rb-spurious-decide", Attacks.rb_spurious_decide ~value:"evil")

let byz_rb_double = ("rb-double-promise", Attacks.rb_double_promise)

let byz_rb_unjustified =
  ("rb-unjustified-accept", Attacks.rb_unjustified_accept ~ballot:7 ~value:"evil")

let all =
  [
    {
      name = "paxos";
      descr = "classic Paxos, minority process crashes";
      n = 3;
      m = 0;
      budget = base_budget;
      phases = [ "paxos.phase1"; "paxos.phase2" ];
      attack_pool = [];
      max_byz = 0;
      deadline = 1000.0;
      repair = None;
      validity = true;
      exec = Algorithms.exec "paxos";
    };
    {
      name = "fast-paxos";
      descr = "Fast Paxos, minority process crashes";
      n = 3;
      m = 0;
      budget = base_budget;
      phases = [];
      attack_pool = [];
      max_byz = 0;
      deadline = 1000.0;
      repair = None;
      validity = true;
      exec = Algorithms.exec "fast-paxos";
    };
    {
      name = "disk-paxos";
      descr = "Disk Paxos, n-1 process crashes, minority memory crashes";
      n = 3;
      m = 3;
      budget =
        {
          base_budget with
          max_process_crashes = 2;
          max_memory_crashes = 1;
          max_machine_crashes = 1;
        };
      phases = [];
      attack_pool = [];
      max_byz = 0;
      deadline = 1000.0;
      repair = None;
      validity = true;
      exec = Algorithms.exec "disk-paxos";
    };
    {
      name = "protected-paxos";
      descr = "Protected Memory Paxos, fP = n-1, fM = minority";
      n = 3;
      m = 3;
      budget =
        {
          base_budget with
          max_process_crashes = 2;
          max_memory_crashes = 1;
          max_machine_crashes = 1;
        };
      phases = [ "pmp.phase1"; "pmp.phase2" ];
      attack_pool = [];
      max_byz = 0;
      deadline = 1000.0;
      repair = None;
      validity = true;
      exec = Algorithms.exec "protected-paxos";
    };
    {
      name = "aligned-paxos";
      descr = "Aligned Paxos, any minority of the n+m agents";
      n = 3;
      m = 2;
      budget = { base_budget with max_process_crashes = 1; max_memory_crashes = 1 };
      phases = [];
      attack_pool = [];
      max_byz = 0;
      deadline = 1200.0;
      repair = None;
      validity = true;
      exec = Algorithms.exec "aligned-paxos";
    };
    {
      name = "robust-backup";
      descr = "Robust Backup, Byzantine fP = minority (crash or attack)";
      n = 3;
      m = 3;
      budget = { base_budget with max_memory_crashes = 1 };
      phases = [ "paxos.phase1"; "paxos.phase2" ];
      attack_pool =
        [ byz_silent; byz_rb_spurious; byz_rb_double; byz_rb_unjustified ];
      max_byz = 1;
      deadline = 2000.0;
      repair = None;
      validity = true;
      exec = Algorithms.exec "robust-backup";
    };
    {
      name = "fast-robust";
      descr = "Fast & Robust, Byzantine fP = minority (crash or attack)";
      n = 3;
      m = 3;
      budget = { base_budget with max_memory_crashes = 1 };
      phases = [ "fr.cheap-quorum"; "fr.preferential" ];
      attack_pool =
        [ byz_silent; byz_cq_equivocator; byz_cq_silent; byz_priority_liar ];
      max_byz = 1;
      deadline = 2000.0;
      repair = None;
      validity = true;
      exec = Algorithms.exec "fast-robust";
    };
    {
      name = "swmr-recovery";
      descr = "SWMR replication under memory crash + rejoin; read-repair";
      n = 2;
      m = 3;
      budget =
        {
          base_budget with
          (* the sole writer must survive to drive the repair sweeps *)
          max_process_crashes = 0;
          max_memory_crashes = 1;
          max_leader_flaps = 0;
          allow_partition = false;
          max_gst = 0.0;
          max_faults = 3;
          max_recoveries = 1;
        };
      phases = [];
      attack_pool = [];
      max_byz = 0;
      deadline = 200.0;
      repair = Some Workloads.swmr_stale;
      validity = true;
      exec = Workloads.swmr_recovery;
    };
    {
      name = "pmp-multi-recovery";
      descr = "repeated Protected Paxos: checkpoints, memory rejoin, repair";
      n = 3;
      m = 3;
      budget =
        {
          base_budget with
          max_process_crashes = 1;
          (* one memory outage at a time: with a second concurrent
             outage no write quorum exists and in-flight waits cannot be
             re-driven, so the run would (correctly) miss its deadline *)
          max_memory_crashes = 1;
          max_machine_crashes = 1;
          max_recoveries = 2;
        };
      phases = [];
      attack_pool = [];
      max_byz = 0;
      deadline = 1000.0;
      repair = Some Workloads.pmp_stale;
      (* decisions are the joined instance sequence, not a literal input *)
      validity = false;
      exec = Workloads.pmp_multi_recovery;
    };
  ]
  (* One recovery scenario per registered consensus engine
     (smr-pmp-recovery, smr-velos-recovery, ...): the SAME workload,
     budget and oracle for every engine — the head-to-head the refactor
     exists for.  [n] counts only the replicas: the workload's client
     drivers live above it, out of the fault generator's reach. *)
  @ List.map
      (fun ((module E : Rdma_smr.Consensus_engine.S) as engine) ->
        {
          name = Printf.sprintf "smr-%s-recovery" E.name;
          descr =
            Printf.sprintf
              "engine-agnostic SMR on %s: crashes, rejoins, partitions, \
               real-time reads"
              E.name;
          n = 3;
          m = 3;
          budget =
            {
              base_budget with
              max_process_crashes = 1;
              (* one memory outage at a time, as in pmp-multi-recovery:
                 a second concurrent outage removes the write quorum *)
              max_memory_crashes = 1;
              max_machine_crashes = 1;
              max_recoveries = 2;
            };
          phases = [];
          attack_pool = [];
          max_byz = 0;
          deadline = Workloads.smr_deadline;
          repair = Some (Workloads.smr_stale engine);
          (* decisions are joined logs, not a literal input *)
          validity = false;
          exec = Workloads.smr_recovery engine ~lease_violation:false;
        })
      Rdma_smr.Engines.all
  @ [
      {
        (* The deliberately broken fixture: a velos leader that keeps
           serving local reads after deposition.  A forced leader change
           mid-workload guarantees the stale window on every seed; the
           clients' real-time watermark check must turn it into an
           Agreement violation — this scenario is run with
           --expect-violations in CI. *)
        name = "velos-stale-lease";
        descr =
          "BROKEN BY DESIGN: velos leader ignores lease expiry; the \
           oracle must catch the stale reads";
        n = 3;
        m = 3;
        budget =
          {
            base_budget with
            (* no random faults: the violation comes from the fixture's
               own forced flap, so every seed is a clean repro *)
            max_process_crashes = 0;
            max_memory_crashes = 0;
            max_machine_crashes = 0;
            max_leader_flaps = 0;
            allow_partition = false;
            allow_latency = false;
            max_gst = 0.0;
            max_faults = 1;
            max_recoveries = 0;
          };
        phases = [];
        attack_pool = [];
        max_byz = 0;
        deadline = Workloads.smr_deadline;
        repair = None;
        validity = false;
        exec =
          (fun ~seed ~n ~m ~inputs ~faults ~byzantine ~prepare ->
            Workloads.smr_recovery
              (module Rdma_smr.Velos)
              ~lease_violation:true ~seed ~n ~m ~inputs
              ~faults:(Fault.Set_leader { pid = 1; at = 30.0 } :: faults)
              ~byzantine ~prepare);
      };
    ]

let find name = List.find_opt (fun s -> s.name = name) all

let names () = List.map (fun s -> s.name) all

let attack t name = List.assoc_opt name t.attack_pool

let inputs t = Array.init t.n (fun i -> Printf.sprintf "v%d" i)

type outcome = {
  case : Nemesis.case;
  report : Report.t option;  (* None when the run aborted *)
  violations : Oracle.violation list;
  fired : (float * string) list;  (* adversary actions, with fire times *)
}

let passed outcome = outcome.violations = []

(* Arm one telemetry trigger: watch the span stream for the configured
   phase opening and fire the action at that exact virtual instant (as a
   fresh engine event, so the opener's fiber is not re-entered). *)
let arm_trigger cluster ~fired (tr : Nemesis.trigger) =
  let engine = Cluster.engine cluster in
  let omega = Cluster.omega cluster in
  let seen = ref 0 in
  let done_ = ref false in
  let record msg = fired := (Engine.now engine, msg) :: !fired in
  let crash pid =
    if not (Cluster.is_crashed cluster pid) then Cluster.crash_process cluster pid
  in
  Obs.subscribe_spans (Cluster.obs cluster) (fun sp ->
      if
        (not !done_)
        && Obs.span_cat sp = "phase"
        && Obs.span_name sp = tr.phase
      then begin
        incr seen;
        if !seen = tr.occurrence then begin
          done_ := true;
          let opener = Obs.span_actor sp in
          Engine.schedule engine 0.0 (fun () ->
              match tr.action with
              | Nemesis.Crash_leader ->
                  let pid = Omega.leader omega in
                  record
                    (Printf.sprintf "%s#%d: crash leader p%d" tr.phase tr.occurrence
                       pid);
                  crash pid
              | Nemesis.Crash_opener -> (
                  match
                    if String.length opener > 1 && opener.[0] = 'p' then
                      int_of_string_opt
                        (String.sub opener 1 (String.length opener - 1))
                    else None
                  with
                  | Some pid when pid >= 0 && pid < Cluster.n cluster ->
                      record
                        (Printf.sprintf "%s#%d: crash opener p%d" tr.phase
                           tr.occurrence pid);
                      crash pid
                  | _ -> ())
              | Nemesis.Flip_leader -> (
                  let current = Omega.leader omega in
                  match
                    List.filter (( <> ) current) (Cluster.correct_pids cluster)
                  with
                  | pid :: _ ->
                      record
                        (Printf.sprintf "%s#%d: leader := p%d" tr.phase tr.occurrence
                           pid);
                      Omega.set_leader omega pid
                  | [] -> ()))
        end
      end)

let run ?prepare:(extra_prepare = fun (_ : string Cluster.t) -> ()) t
    (case : Nemesis.case) =
  let inputs = inputs t in
  let byzantine =
    List.map
      (fun (pid, name) ->
        match attack t name with
        | Some behaviour -> (pid, behaviour)
        | None ->
            invalid_arg
              (Printf.sprintf "Scenario.run: %s has no attack %S" t.name name))
      case.byz
  in
  let byz_pids = List.map fst case.byz in
  let watch = ref None in
  let fired = ref [] in
  let prepare cluster =
    watch :=
      Some
        (Oracle.install
           ?repair:(Option.map (fun pred -> pred cluster) t.repair)
           ~deadline:t.deadline cluster);
    List.iter (arm_trigger cluster ~fired) case.triggers;
    extra_prepare cluster
  in
  match
    t.exec ~seed:case.case_seed ~n:t.n ~m:t.m ~inputs ~faults:case.faults
      ~byzantine ~prepare
  with
  | report ->
      let violations =
        Oracle.check ?watch:!watch ~validity:t.validity ~inputs ~byz:byz_pids
          report
      in
      { case; report = Some report; violations; fired = List.rev !fired }
  | exception e ->
      {
        case;
        report = None;
        violations = [ Oracle.Aborted { error = Printexc.to_string e } ];
        fired = List.rev !fired;
      }

(* Generate the case for [seed] under this scenario's constraints. *)
let generate t ?(adversary = false) ?(byz = false) ?(over_budget = false)
    ?ordering ~seed () =
  let budget =
    if over_budget then Nemesis.unleash ~n:t.n ~m:t.m t.budget else t.budget
  in
  Nemesis.generate ~budget ~n:t.n ~m:t.m
    ~attack_pool:(if byz then List.map fst t.attack_pool else [])
    ~max_byz:(if byz then t.max_byz else 0)
    ~phases:t.phases ~adversary ?ordering ~seed ()

(* Command-line driver: run any of the repository's agreement algorithms
   on a simulated M&M cluster with a declarative fault schedule, and
   print decisions, delay counts and substrate statistics.

     dune exec bin/rdma_agreement.exe -- run fast-robust -n 3 -m 3
     dune exec bin/rdma_agreement.exe -- run protected-paxos -n 2 -m 3 \
         --crash-process 1@0.0 --crash-memory 2@1.5
     dune exec bin/rdma_agreement.exe -- list *)

open Cmdliner
open Rdma_sim
open Rdma_mm
open Rdma_consensus
open Rdma_obs

(* "smr" is engine-parametric (--engine), so it is not an entry of the
   algorithm table; [find_algorithm] builds it per engine choice. *)
let smr_descr =
  "replicated log over a pluggable consensus engine (--engine, see \
   list-engines)"

let engine_arg =
  let doc =
    "SMR consensus engine: "
    ^ String.concat ", "
        (List.map
           (fun (module E : Rdma_smr.Consensus_engine.S) ->
             Printf.sprintf "$(b,%s) (%s)" E.name E.descr)
           Rdma_smr.Engines.all)
    ^ "."
  in
  Arg.(value
      & opt (enum (List.map (fun n -> (n, n)) Rdma_smr.Engines.names)) "pmp"
      & info [ "engine" ] ~docv:"ENGINE" ~doc)

(* run smr's one client, pid n: submit the inputs in order, retrying
   each past leader failovers until it is acked (a committed-but-unacked
   submit is deduplicated by (client, seq) on the next attempt), close
   with a linearizable read, and decide the join of the inputs once all
   of them are acked. *)
let submitter inputs : Rdma_smr.Harness.client =
 fun (module E) ~cfg ~decide cluster ~pid ->
  Cluster.spawn cluster ~pid (fun ctx ->
      let acked = ref 0 in
      Array.iteri
        (fun seq cmd ->
          let rec attempt () =
            if Engine.now ctx.Cluster.ctx_engine < Rdma_smr.Harness.t_stop then
              match E.submit ctx ~cfg ~seq ~cmd ~timeout:30.0 with
              | Some _ -> incr acked
              | None -> attempt ()
          in
          if !acked = seq then attempt ())
        inputs;
      ignore (E.linearizable_read ctx ~cfg ~seq:1000 ~timeout:30.0 : int option);
      if !acked = Array.length inputs then
        decide (String.concat ";" (Array.to_list inputs)))

let find_algorithm ~engine name =
  if name = "smr" then
    Some
      {
        Algorithms.name = "smr";
        descr = smr_descr;
        needs_memories = true;
        exec =
          (fun ~seed ~n ~m ~inputs ~faults ~byzantine ~prepare ->
            Rdma_smr.Harness.run
              ~engine:(Rdma_smr.Engines.get engine)
              ~clients:[ submitter inputs ] ~byzantine ~seed ~n ~m ~faults
              ~prepare ());
      }
  else Algorithms.find name

(* Reject what the simulator cannot run before anything starts, with one
   line on stderr and exit status 1: no processes, no memories for an
   algorithm that needs them, a fault aimed outside the cluster of
   [procs] processes, a NaN fault time, or a negative or NaN
   asynchrony extra. *)
let check_run ~name ~needs_memories ~n ~m ?(procs = n) faults =
  let reject msg =
    Fmt.epr "%s@." msg;
    exit 1
  in
  if n < 1 then reject (Printf.sprintf "-n must be at least 1, got %d" n);
  if needs_memories && m < 1 then
    reject (Printf.sprintf "%s needs at least one memory, got -m %d" name m);
  Option.iter reject (Fault.problem ~n:procs ~m faults)

(* "pid@time" *)
let event_conv =
  let parse s =
    match String.split_on_char '@' s with
    | [ id; at ] -> (
        match (int_of_string_opt id, float_of_string_opt at) with
        | Some id, Some at -> Ok (id, at)
        | _ -> Error (`Msg (Printf.sprintf "expected ID@TIME, got %s" s)))
    | _ -> Error (`Msg (Printf.sprintf "expected ID@TIME, got %s" s))
  in
  let print ppf (id, at) = Fmt.pf ppf "%d@%.1f" id at in
  Arg.conv (parse, print)

(* "pid:mid@time" *)
let machine_conv =
  let parse s =
    let err () = Error (`Msg (Printf.sprintf "expected PID:MID@TIME, got %s" s)) in
    match String.split_on_char '@' s with
    | [ ids; at ] -> (
        match String.split_on_char ':' ids with
        | [ pid; mid ] -> (
            match
              (int_of_string_opt pid, int_of_string_opt mid, float_of_string_opt at)
            with
            | Some pid, Some mid, Some at -> Ok (pid, mid, at)
            | _ -> err ())
        | _ -> err ())
    | _ -> err ()
  in
  let print ppf (pid, mid, at) = Fmt.pf ppf "%d:%d@%.1f" pid mid at in
  Arg.conv (parse, print)

(* "strict" | "completion-lag[:MAX_LAG]" | "reordered-qp[:WINDOW]" *)
let ordering_conv =
  let parse s =
    match Rdma_mem.Ordering.of_string s with
    | Ok mode -> Ok mode
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Rdma_mem.Ordering.pp)

let ordering_arg =
  let doc =
    "Memory-ordering model for the RDMA substrate: $(b,strict) (completion \
     implies remote apply — today's default), $(b,completion-lag)[:MAX_LAG] \
     (the issuer's completion can arrive before the write applies remotely; \
     per-op lag is seeded), or $(b,reordered-qp)[:WINDOW] (in-flight same-QP \
     ops may apply out of issue order within the window)."
  in
  Arg.(value & opt (some ordering_conv) None
      & info [ "ordering" ] ~docv:"MODE" ~doc)

(* One line of the [run --trace] listing, rendered from a retained
   collector event: memory writes and permission changes (on the
   memory's track, as they arrive there), sends, and Fast & Robust's
   Cheap Quorum -> Preferential Paxos hand-offs.  Other events are not
   listed. *)
let io_line (at, actor, (ev : Event.t)) =
  let line fmt =
    Printf.ksprintf
      (fun s -> Some (Printf.sprintf "[%6.2f] %-12s %s" at actor s))
      fmt
  in
  match ev with
  | Mem_write { pid; region; reg; value; ok = true; _ } ->
      line "p%d write %s/%s := %s -> ack" pid region reg value
  | Mem_write { pid; region; reg; ok = false; _ } ->
      line "p%d write %s/%s -> nak" pid region reg
  | Mem_perm { pid; region; applied; _ } ->
      line "p%d changePermission %s -> %s" pid region
        (if applied then "applied" else "refused")
  | Net_send { dst; _ } -> line "send -> p%d" dst
  | Custom { name; detail } when name = Fast_robust.handoff_event ->
      line "%s" detail
  | _ -> None

let run_cmd =
  let algo =
    let doc = "Algorithm to run (see the list command)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ALGORITHM" ~doc)
  in
  let n =
    let doc = "Number of processes." in
    Arg.(value & opt int 3 & info [ "n"; "processes" ] ~doc)
  in
  let m =
    let doc = "Number of memories." in
    Arg.(value & opt int 3 & info [ "m"; "memories" ] ~doc)
  in
  let seed =
    let doc = "Deterministic simulation seed." in
    Arg.(value & opt int 1 & info [ "seed" ] ~doc)
  in
  let inputs =
    let doc = "Proposed values (default v0..v(n-1))." in
    Arg.(value & opt (list string) [] & info [ "inputs" ] ~doc)
  in
  let crash_procs =
    let doc = "Crash process PID at TIME (repeatable), e.g. 1@2.5." in
    Arg.(value & opt_all event_conv [] & info [ "crash-process" ] ~docv:"PID@TIME" ~doc)
  in
  let crash_mems =
    let doc = "Crash memory MID at TIME (repeatable)." in
    Arg.(value & opt_all event_conv [] & info [ "crash-memory" ] ~docv:"MID@TIME" ~doc)
  in
  let recover_mems =
    let doc =
      "Recover crashed memory MID at TIME (repeatable): it rejoins EMPTY \
       under a fresh epoch and must be re-replicated by the protocol."
    in
    Arg.(value & opt_all event_conv []
        & info [ "recover-memory" ] ~docv:"MID@TIME" ~doc)
  in
  let restart_machines =
    let doc =
      "Restart the machine hosting process PID and memory MID at TIME \
       (repeatable): the memory rejoins empty and the process re-runs its \
       program, e.g. 0:1@5.0."
    in
    Arg.(value & opt_all machine_conv []
        & info [ "restart-machine" ] ~docv:"PID:MID@TIME" ~doc)
  in
  let leaders =
    let doc = "Point the leader oracle at PID at TIME (repeatable)." in
    Arg.(value & opt_all event_conv [] & info [ "set-leader" ] ~docv:"PID@TIME" ~doc)
  in
  let gst =
    let doc = "Asynchronous prefix: GST@EXTRA adds EXTRA delay before GST." in
    Arg.(value & opt (some event_conv) None & info [ "async-until" ] ~docv:"GST@EXTRA" ~doc)
  in
  let trace =
    let doc =
      "Print the first $(docv) I/O events (memory writes, permission changes, \
       sends, Fast & Robust hand-offs)."
    in
    Arg.(value & opt (some int) None & info [ "trace" ] ~docv:"N" ~doc)
  in
  let trace_out =
    let doc =
      "Write the full telemetry stream to $(docv): Chrome trace_event JSON \
       (load in chrome://tracing or Perfetto), or JSONL if $(docv) ends in \
       .jsonl.  Same seed, same bytes."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let metrics_out =
    let doc =
      "Write latency histograms (p50/p90/p99 per span name, incl. protocol \
       phases) and counters to $(docv) as JSON."
    in
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let perf_out =
    let doc =
      "Write a versioned perf snapshot (deterministic work counters per \
       scope, plus wall-clock timings) for this run to $(docv) as JSON.  \
       The deterministic plane is byte-identical for a given seed; the \
       timing plane is informational."
    in
    Arg.(value & opt (some string) None & info [ "perf-out" ] ~docv:"FILE" ~doc)
  in
  let flame_out =
    let doc =
      "Write collapsed flamegraph stacks (scope;path count) for this run to \
       $(docv); feed to flamegraph.pl or speedscope."
    in
    Arg.(value & opt (some string) None & info [ "flame-out" ] ~docv:"FILE" ~doc)
  in
  let action name engine n m seed inputs crash_procs crash_mems recover_mems
      restart_machines leaders gst ordering trace trace_out metrics_out
      perf_out flame_out =
    match find_algorithm ~engine name with
    | None ->
        Fmt.epr "unknown algorithm %s; try the list command@." name;
        exit 1
    | Some algo ->
        let faults =
          (match ordering with
          | Some mode -> [ Fault.Set_ordering { mode } ]
          | None -> [])
          @ List.map (fun (pid, at) -> Fault.Crash_process { pid; at }) crash_procs
          @ List.map (fun (mid, at) -> Fault.Crash_memory { mid; at }) crash_mems
          @ List.map (fun (mid, at) -> Fault.Recover_memory { mid; at }) recover_mems
          @ List.map
              (fun (pid, mid, at) -> Fault.Restart_machine { pid; mid; at })
              restart_machines
          @ List.map (fun (pid, at) -> Fault.Set_leader { pid; at }) leaders
          @
          match gst with
          | Some (g, e) -> [ Fault.Async_until { gst = float_of_int g; extra = e } ]
          | None -> []
        in
        let m = if algo.needs_memories then m else 0 in
        (* run smr's client is one more process, pid n *)
        check_run ~name ~needs_memories:algo.needs_memories ~n ~m
          ~procs:(if name = "smr" then n + 1 else n)
          faults;
        let inputs =
          if inputs = [] then Array.init n (fun i -> Printf.sprintf "v%d" i)
          else if List.length inputs = n then Array.of_list inputs
          else begin
            Fmt.epr "need exactly %d inputs@." n;
            exit 1
          end
        in
        let captured = ref None in
        let prepare cluster =
          captured := Some cluster;
          (* Retaining the raw event/span stream costs memory, so it is
             only on when an export or the --trace listing was
             requested. *)
          if trace <> None || trace_out <> None then
            Obs.set_recording (Cluster.obs cluster) true
        in
        (* Profile only when a perf export was asked for: the profiler
           is cheap but not free, and an uninstrumented run should cost
           nothing. *)
        let want_prof = perf_out <> None || flame_out <> None in
        let prof = Prof.create () in
        let report =
          if want_prof then
            Prof.with_profiler prof (fun () ->
                algo.exec ~seed ~n ~m ~inputs ~faults ~byzantine:[] ~prepare)
          else algo.exec ~seed ~n ~m ~inputs ~faults ~byzantine:[] ~prepare
        in
        Fmt.pr "algorithm : %s@." report.Report.algorithm;
        Fmt.pr "cluster   : n=%d processes, m=%d memories, seed=%d@." n m seed;
        if faults <> [] then
          Fmt.pr "faults    : %a@." Fmt.(list ~sep:(any ", ") Fault.pp) faults;
        Fmt.pr "@.decisions:@.";
        Array.iteri
          (fun pid d ->
            match d with
            | Some { Report.value; at } ->
                Fmt.pr "  p%-2d %-20S at %6.1f delays@." pid value at
            | None -> Fmt.pr "  p%-2d (no decision)@." pid)
          report.Report.decisions;
        Fmt.pr "@.agreement : %b@." (Report.agreement_ok report);
        (* SMR decisions are joined logs, not one of the proposed values,
           so single-value validity does not apply. *)
        if name = "smr" then Fmt.pr "validity  : n/a (replicated log)@."
        else Fmt.pr "validity  : %b@." (Report.validity_ok report ~inputs);
        (match Report.first_decision_time report with
        | Some t -> Fmt.pr "first decision: %.1f delays@." t
        | None -> Fmt.pr "first decision: -@.");
        Fmt.pr "cost      : %d msgs, %d memory ops, %d signatures, %d sim events@."
          report.Report.messages report.Report.mem_ops report.Report.signatures
          report.Report.sim_steps;
        if report.Report.phases <> [] then
          Fmt.pr "@.phase latencies (delays):@.%a@." Report.pp_phases report;
        (match !captured with
        | None -> ()
        | Some cluster ->
            let obs = Cluster.obs cluster in
            Option.iter
              (fun file ->
                Export.write_trace obs ~file;
                Fmt.pr "@.trace written to %s (%d entries)@." file
                  (Obs.entry_count obs))
              trace_out;
            Option.iter
              (fun file ->
                Export.write_metrics obs ~file;
                Fmt.pr "metrics written to %s@." file)
              metrics_out);
        let write_string file contents =
          let oc = open_out file in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc contents)
        in
        Option.iter
          (fun file ->
            write_string file
              (Export.perf_snapshot ~id:(name ^ "-seed" ^ string_of_int seed)
                 prof);
            Fmt.pr "perf snapshot written to %s@." file)
          perf_out;
        Option.iter
          (fun file ->
            write_string file (Export.flamegraph prof);
            Fmt.pr "flamegraph stacks written to %s@." file)
          flame_out;
        match (trace, !captured) with
        | Some limit, Some cluster ->
            let lines =
              List.filter_map io_line (Obs.events (Cluster.obs cluster))
            in
            let total = List.length lines in
            Fmt.pr "@.I/O trace (first %d of %d events):@." (min limit total) total;
            List.iteri (fun i l -> if i < limit then Fmt.pr "  %s@." l) lines
        | _ -> ()
  in
  let doc = "Run one consensus instance under a fault schedule." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const action $ algo $ engine_arg $ n $ m $ seed $ inputs $ crash_procs
      $ crash_mems $ recover_mems $ restart_machines $ leaders $ gst
      $ ordering_arg $ trace $ trace_out $ metrics_out $ perf_out $ flame_out)

let log_cmd =
  let kind =
    let doc = "Log flavour: bft (Fast & Robust per slot, Byzantine model)." in
    Arg.(required & pos 0 (some (enum [ ("bft", ()) ])) None
        & info [] ~docv:"KIND" ~doc)
  in
  let slots =
    let doc = "Number of log slots." in
    Arg.(value & opt int 4 & info [ "slots" ] ~doc)
  in
  let n = Arg.(value & opt int 3 & info [ "n"; "processes" ] ~doc:"Processes.") in
  let m = Arg.(value & opt int 3 & info [ "m"; "memories" ] ~doc:"Memories.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.") in
  let crash_procs =
    Arg.(value & opt_all event_conv []
        & info [ "crash-process" ] ~docv:"PID@TIME" ~doc:"Crash process PID at TIME.")
  in
  let action () slots n m seed crash_procs =
    let faults =
      List.map (fun (pid, at) -> Fault.Crash_process { pid; at }) crash_procs
    in
    check_run ~name:"log bft" ~needs_memories:true ~n ~m faults;
    let reports, _ =
      Rdma_smr.Bft_log.run
        ~cfg:{ Rdma_smr.Bft_log.default_config with slots }
        ~seed ~n ~m ~faults
        ~input_for:(fun ~pid ~slot -> Printf.sprintf "cmd%d.%d" pid slot)
        ()
    in
    Fmt.pr "%-8s %-22s %-16s %-12s %-8s@." "slot" "decided value" "first (delays)"
      "agreement" "decided";
    Array.iteri
      (fun i report ->
        Fmt.pr "%-8d %-22s %-16s %-12b %d/%d@." i
          (Option.value (Report.decision_value report) ~default:"-")
          (match Report.first_decision_time report with
          | Some t -> Printf.sprintf "%.1f" t
          | None -> "-")
          (Report.agreement_ok report)
          (Report.decided_count report) n)
      reports
  in
  let doc = "Run a replicated log (multi-instance consensus) and print per-slot results." in
  Cmd.v (Cmd.info "log" ~doc)
    Term.(const action $ kind $ slots $ n $ m $ seed $ crash_procs)

let validate_trace_cmd =
  let file =
    let doc = "Chrome trace JSON file to validate." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let action file =
    let ic = open_in_bin file in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    match Export.validate_chrome contents with
    | Ok (events, tracks) ->
        Fmt.pr "%s: valid Chrome trace, %d events on %d tracks@." file events
          tracks
    | Error msg ->
        Fmt.epr "%s: INVALID trace: %s@." file msg;
        exit 1
  in
  let doc = "Structurally validate a Chrome trace produced by run --trace-out." in
  Cmd.v (Cmd.info "validate-trace" ~doc) Term.(const action $ file)

let list_cmd =
  let action () =
    Fmt.pr "available algorithms:@.";
    List.iter
      (fun (a : Algorithms.t) -> Fmt.pr "  %-16s %s@." a.name a.descr)
      Algorithms.all;
    Fmt.pr "  %-16s %s@." "smr" smr_descr
  in
  let doc = "List the available algorithms." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const action $ const ())

let list_engines_cmd =
  let action () =
    Fmt.pr "available SMR engines (run smr --engine E, chaos explore \
            smr-E-recovery):@.";
    List.iter
      (fun (module E : Rdma_smr.Consensus_engine.S) ->
        Fmt.pr "  %-8s %s@." E.name E.descr)
      Rdma_smr.Engines.all
  in
  let doc = "List the pluggable SMR consensus engines." in
  Cmd.v (Cmd.info "list-engines" ~doc) Term.(const action $ const ())

(* --- chaos: deterministic fault exploration ------------------------- *)

let chaos_scenario_pos =
  let doc =
    "Chaos scenario (one of "
    ^ String.concat ", " (Rdma_chaos.Scenario.names ())
    ^ ")."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc)

let find_scenario name =
  match Rdma_chaos.Scenario.find name with
  | Some s -> s
  | None ->
      Fmt.epr "unknown chaos scenario %s; known: %s@." name
        (String.concat ", " (Rdma_chaos.Scenario.names ()));
      exit 2

let pp_outcome ppf (outcome : Rdma_chaos.Scenario.outcome) =
  let open Rdma_chaos in
  (match outcome.fired with
  | [] -> ()
  | fired ->
      List.iter (fun (at, msg) -> Fmt.pf ppf "  adversary @%.1f: %s@." at msg) fired);
  match outcome.violations with
  | [] -> Fmt.pf ppf "  verdict: ok@."
  | vs ->
      List.iter (fun v -> Fmt.pf ppf "  verdict: %a@." Oracle.pp_violation v) vs

let chaos_explore_cmd =
  let open Rdma_chaos in
  let runs =
    Arg.(value & opt int 50 & info [ "runs" ] ~doc:"Number of generated schedules.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base seed (case i uses seed+i).")
  in
  let adversary =
    Arg.(value & flag
        & info [ "adversary" ]
            ~doc:"Arm telemetry-driven triggers at protocol phase boundaries.")
  in
  let byzantine =
    Arg.(value & flag
        & info [ "byzantine" ]
            ~doc:"Draw Byzantine processes from the scenario's attack pool.")
  in
  let over_budget =
    Arg.(value & flag
        & info [ "over-budget" ]
            ~doc:
              "Lift the crash budget past the algorithm's fault model \
               (violations expected; exercises the shrinker).")
  in
  let out =
    Arg.(value & opt (some string) None
        & info [ "out" ] ~docv:"FILE"
            ~doc:"Write the first minimized repro artifact to $(docv).")
  in
  let expect_violations =
    Arg.(value & flag
        & info [ "expect-violations" ]
            ~doc:"Invert the exit status: fail when NO violation is found.")
  in
  let jobs =
    Arg.(value
        & opt int (Pool.default_jobs ())
        & info [ "j"; "jobs" ] ~docv:"N"
            ~doc:
              "Run schedules across $(docv) domains (results are \
               byte-identical at any job count).")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
        & info [ "metrics-out" ] ~docv:"FILE"
            ~doc:"Write the batch's merged metrics snapshot to $(docv).")
  in
  let action name runs seed adversary byzantine over_budget out
      expect_violations jobs metrics_out ordering =
    let scenario = find_scenario name in
    let name = scenario.Scenario.name in
    let options =
      {
        Explore.runs;
        seed;
        adversary;
        byz = byzantine;
        over_budget;
        jobs;
        ordering;
      }
    in
    let batch = Explore.explore ~options scenario in
    List.iter
      (fun (f : Explore.failure) ->
        Fmt.pr "violation: %s seed=%d@." name f.outcome.case.Nemesis.case_seed;
        Fmt.pr "%a" pp_outcome f.outcome;
        Fmt.pr "  schedule: %a@."
          Fmt.(list ~sep:(any ", ") Fault.pp)
          f.outcome.case.Nemesis.faults;
        Fmt.pr "  minimized (%d probes): %a@." f.shrink_probes
          Fmt.(list ~sep:(any ", ") Fault.pp)
          f.repro.Repro.faults)
      batch.failures;
    (match (out, batch.failures) with
    | Some path, f :: _ ->
        Repro.save f.repro path;
        Fmt.pr "repro written to %s@." path
    | Some _, [] -> Fmt.pr "no violation to write@."
    | None, _ -> ());
    (match metrics_out with
    | Some path ->
        Rdma_obs.Export.write_metrics batch.Explore.metrics ~file:path;
        Fmt.pr "metrics written to %s@." path
    | None -> ());
    let failed = List.length batch.failures in
    Fmt.pr "%s: %d schedules, %d ok, %d violations@." name (Explore.total batch)
      batch.passed failed;
    if expect_violations then begin
      if failed = 0 then exit 1
    end
    else if failed > 0 then exit 1
  in
  let doc = "Explore seeded random fault schedules against an algorithm." in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const action $ chaos_scenario_pos $ runs $ seed $ adversary $ byzantine
      $ over_budget $ out $ expect_violations $ jobs $ metrics_out
      $ ordering_arg)

let chaos_replay_cmd =
  let open Rdma_chaos in
  let file =
    Arg.(required & pos 0 (some file) None
        & info [] ~docv:"FILE" ~doc:"Repro artifact written by explore --out.")
  in
  let action file =
    match Repro.load file with
    | Error e ->
        Fmt.epr "%s: %s@." file e;
        exit 2
    | Ok repro -> (
        let scenario = find_scenario repro.Repro.scenario in
        (* A schedule the scenario's cluster cannot run is a bad
           artifact, not a reproduced violation. *)
        match
          Fault.problem ~n:scenario.Scenario.n ~m:scenario.Scenario.m
            repro.Repro.faults
        with
        | Some problem ->
            Fmt.epr "%s: %s@." file problem;
            exit 2
        | None ->
            let outcome = Explore.replay scenario repro in
            Fmt.pr "replay %s seed=%d@." repro.Repro.scenario repro.Repro.seed;
            Fmt.pr "  schedule: %a@."
              Fmt.(list ~sep:(any ", ") Fault.pp)
              repro.Repro.faults;
            Fmt.pr "%a" pp_outcome outcome;
            if outcome.violations <> [] then exit 1)
  in
  let doc = "Replay a minimized repro artifact bit-for-bit." in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const action $ file)

let chaos_cmd =
  let doc = "Deterministic chaos testing: nemesis schedules, oracle, shrinker." in
  Cmd.group (Cmd.info "chaos" ~doc) [ chaos_explore_cmd; chaos_replay_cmd ]

let () =
  let doc = "Consensus on simulated RDMA (The Impact of RDMA on Agreement, PODC'19)" in
  let info = Cmd.info "rdma_agreement" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            chaos_cmd;
            log_cmd;
            validate_trace_cmd;
            list_cmd;
            list_engines_cmd;
          ]))

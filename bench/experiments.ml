(* The experiment harness: regenerates every table- and figure-level
   claim of "The Impact of RDMA on Agreement" (PODC 2019).

   The paper is a theory paper; its "evaluation" is the set of
   resilience/delay claims of Table 1, Sections 4–6 and the introduction.
   Each experiment below reruns the corresponding algorithms on the
   simulated M&M substrate and prints paper-vs-measured.  EXPERIMENTS.md
   records the outcomes.

   Every experiment is a declared task over a threaded [env] — no
   global state.  An experiment renders its entire output into the
   [env]'s formatter and returns file artifacts (trace/metrics exports)
   as rendered strings in [env.exports]; the suite driver prints
   outputs in request order and performs the writes.  That discipline
   is what lets [run_suite] dispatch experiments onto a domain pool
   ([-j N]) with byte-identical output to a sequential run. *)

open Rdma_consensus
open Rdma_obs

(* Everything one experiment may read or produce.  [jobs] is the
   parallelism available to the experiment's own inner pools (chaos
   explore batches); the driver sets it to 1 when the experiments
   themselves are being dispatched in parallel, so nested pools never
   multiply domains. *)
type env = {
  ppf : Format.formatter;  (* all experiment output renders here *)
  trace_out : string option;  (* o1: trace export destination *)
  metrics_out : string option;  (* o1: metrics export destination *)
  jobs : int;
  mutable exports : (string * string) list;  (* file -> rendered contents *)
  mutable bench_rows : (string * float * int) list;
      (* b1 Bechamel estimates, (label, ns/run, samples), in print
         order; [run_one] routes them into the perf snapshot's timing
         plane so B1 is machine-readable, not text-only *)
}

let pr env fmt = Fmt.pf env.ppf fmt

let section env id title =
  pr env "@.==============================================================@.";
  pr env "%s — %s@." (String.uppercase_ascii id) title;
  pr env "==============================================================@."

let inputs n = Array.init n (fun i -> Printf.sprintf "v%d" i)

let fmt_delay = function Some t -> Printf.sprintf "%.1f" t | None -> "-"

let check b = if b then "yes" else "NO!"

(* ------------------------------------------------------------------ *)
(* T1: Table 1 — fault-tolerance of Byzantine agreement                 *)
(* ------------------------------------------------------------------ *)

let exp_t1 env =
  section env "t1"
    "Table 1: Byzantine agreement resilience (paper row: async, \
     signatures, RDMA non-equivocation, weak validity, 2f+1)";
  pr env "Paper: weak Byzantine agreement with n = 2fP + 1 processes.@.";
  pr env "We run Fast & Robust at the bound and below it.@.@.";
  pr env "%-34s %-6s %-9s %-10s %-8s@." "scenario" "n" "byz f" "agreement"
    "decided";
  let row name n byzantine faults expect_decide =
    let report, byz, _ =
      Fast_robust.run ~n ~m:3 ~inputs:(inputs n) ~byzantine ~faults ()
    in
    let correct = n - List.length byzantine in
    let decided = Report.decided_count report in
    pr env "%-34s %-6d %-9d %-10s %d/%d %s@." name n (List.length byzantine)
      (check (Report.agreement_ok ~ignore_pids:byz report))
      decided correct
      (if expect_decide then if decided >= correct then "(all correct)" else "(LIVENESS!)"
       else if decided = 0 then "(stuck, as expected below the bound)"
       else "(unexpected progress)")
  in
  row "n=3, f=1 silent Byzantine" 3
    [ (2, fun _ -> ()) ]
    [] true;
  row "n=3, f=1 equivocating leader" 3
    [ (0, Attacks.cq_equivocating_leader ~v1:"black" ~v2:"white") ]
    [ Fault.Set_leader { pid = 1; at = 0.0 } ]
    true;
  row "n=5, f=2 mixed Byzantine" 5
    [ (3, fun _ -> ()); (4, Attacks.pp_priority_liar ~value:"liar") ]
    [] true;
  (* Below the bound the backup quorum (a majority of n) exceeds the
     number of correct processes, so a silent Byzantine leader leaves the
     lone correct process stuck forever. *)
  row "n=2, f=1 (below 2f+1: must stall)" 2
    [ (0, Attacks.cq_silent_leader) ]
    [ Fault.Set_leader { pid = 1; at = 0.0 } ]
    false;
  pr env "@.Shape to match: 2f+1 suffices with RDMA (vs 3f+1 for async \
          message passing even with signatures).@."

(* ------------------------------------------------------------------ *)
(* D1: the 2-deciding Byzantine fast path (Theorem 4.9, Section 4.2)    *)
(* ------------------------------------------------------------------ *)

let exp_d1 env =
  section env "d1" "Fast & Robust: 2-deciding, one signature (Theorem 4.9)";
  pr env "%-8s %-8s %-14s %-16s %-12s@." "n" "m" "first (delays)" "sigs@decide"
    "agreement";
  List.iter
    (fun (n, m) ->
      let report, _, _ = Fast_robust.run ~n ~m ~inputs:(inputs n) () in
      pr env "%-8d %-8d %-14s %-16d %-12s@." n m
        (fmt_delay (Report.first_decision_time report))
        (Report.named report "sigs_at_fast_decision")
        (check (Report.agreement_ok report)))
    [ (3, 3); (5, 3); (5, 5); (7, 3) ];
  pr env "@.Paper: decides in 2 delays with 1 signature in common executions;@.";
  pr env "best prior 2-delay BFT needed 6f+2 signatures and n >= 3f+1 [7].@.";
  (* per-process decision latency: "some process decides in 2" — the
     followers take the unanimity-proof route *)
  let report, _, _ = Fast_robust.run ~n:3 ~m:3 ~inputs:(inputs 3) () in
  pr env "@.Per-process decision times (n=3, m=3):@.";
  Array.iteri
    (fun pid d ->
      match d with
      | Some { Report.at; _ } ->
          pr env "  p%d decided at %5.1f delays%s@." pid at
            (if pid = 0 then "  (leader: the 2-delay fast path)"
             else "  (follower: replicate, countersign, verify n proofs)")
      | None -> ())
    report.Report.decisions

(* ------------------------------------------------------------------ *)
(* D2: the crash-case trade-off table (Sections 1 and 5)                *)
(* ------------------------------------------------------------------ *)

let exp_d2 env =
  section env "d2" "Crash consensus: resilience vs delays (the paper's core trade-off)";
  pr env "%-24s %-16s %-10s %-14s %-10s@." "algorithm" "processes" "memories"
    "first (delays)" "decided";
  let msg_row name run n =
    let report = run ~n ~inputs:(inputs n) in
    pr env "%-24s %-16s %-10s %-14s %-10s@." name
      (Printf.sprintf "n=%d (>=2f+1)" n) "-"
      (fmt_delay (Report.first_decision_time report))
      (Printf.sprintf "%d/%d" (Report.decided_count report) n)
  in
  let mem_row name run n m proc_bound =
    let report = run ~n ~m ~inputs:(inputs n) in
    pr env "%-24s %-16s %-10s %-14s %-10s@." name
      (Printf.sprintf "n=%d (>=%s)" n proc_bound)
      (Printf.sprintf "m=%d" m)
      (fmt_delay (Report.first_decision_time report))
      (Printf.sprintf "%d/%d" (Report.decided_count report) n)
  in
  msg_row "Paxos" (fun ~n ~inputs -> Paxos.run ~n ~inputs ()) 3;
  msg_row "Fast Paxos" (fun ~n ~inputs -> Fast_paxos.run ~n ~inputs ()) 3;
  mem_row "Disk Paxos" (fun ~n ~m ~inputs -> Disk_paxos.run ~n ~m ~inputs ()) 2 3 "f+1";
  mem_row "Protected Memory Paxos"
    (fun ~n ~m ~inputs -> Protected_paxos.run ~n ~m ~inputs ())
    2 3 "f+1";
  mem_row "Aligned Paxos"
    (fun ~n ~m ~inputs -> Aligned_paxos.run ~n ~m ~inputs ())
    3 2 "maj(n+m)";
  pr env "@.Shape to match (Section 1): Disk Paxos reaches n=f+1 but needs >=4@.";
  pr env "delays; Fast Paxos reaches 2 delays but needs n>=2f+1; Protected@.";
  pr env "Memory Paxos gets BOTH 2 delays AND n=f+1 via dynamic permissions.@.";
  (* and the resilience crossover, demonstrated *)
  pr env "@.Resilience at n = f+1 = 2 with one process crash:@.";
  let crash0 = [ Fault.Crash_process { pid = 1; at = 0.0 } ] in
  let pmp = Protected_paxos.run ~n:2 ~m:3 ~inputs:(inputs 2) ~faults:crash0 () in
  pr env "  protected-paxos n=2, crash p1: survivor decides = %s@."
    (check (Report.decided_count pmp = 1));
  let px =
    Paxos.run ~n:2 ~inputs:(inputs 2) ~faults:crash0 ()
  in
  pr env "  paxos           n=2, crash p1: stuck (needs majority) = %s@."
    (check (Report.decided_count px = 0))

(* ------------------------------------------------------------------ *)
(* D3: Aligned Paxos — combined-agent majority (Section 5.2)            *)
(* ------------------------------------------------------------------ *)

let exp_d3 env =
  section env "d3" "Aligned Paxos: any minority of processes+memories may crash";
  let n = 3 and m = 2 in
  pr env "cluster: n=%d processes + m=%d memories = %d agents; majority = %d@." n m
    (n + m)
    (((n + m) / 2) + 1);
  pr env "%-38s %-10s %-10s@." "killed agents" "decides" "verdict";
  let agent_name a = if a < n then Printf.sprintf "p%d" a else Printf.sprintf "mu%d" (a - n) in
  let kill agents expect =
    let faults =
      List.map
        (fun a ->
          if a < n then Fault.Crash_process { pid = a; at = 0.0 }
          else Fault.Crash_memory { mid = a - n; at = 0.0 })
        agents
    in
    let report = Aligned_paxos.run ~n ~m ~inputs:(inputs n) ~faults () in
    let decided = Report.decided_count report > 0 in
    pr env "%-38s %-10b %-10s@."
      (String.concat ", " (List.map agent_name agents))
      decided
      (if decided = expect then "as expected" else "UNEXPECTED");
  in
  (* every 2-subset of the 5 agents: must still decide *)
  for a = 0 to n + m - 1 do
    for b = a + 1 to n + m - 1 do
      (* skip killing every process (then nobody is left to decide) *)
      kill [ a; b ] true
    done
  done;
  (* one more than a minority: must block *)
  kill [ 1; 2; 3 ] false;
  kill [ 2; 3; 4 ] false;
  pr env "@.Memory-agent ablation (footnote 4) — both modes solve consensus;@.";
  pr env "permissions trade the phase-2 read-back for a permission grab:@.";
  List.iter
    (fun (label, cfg, n, m) ->
      let r = Aligned_paxos.run ~cfg ~n ~m ~inputs:(inputs n) () in
      pr env "  %-34s n=%d m=%d  first decision %s delays@." label n m
        (fmt_delay (Report.first_decision_time r)))
    [
      ("with permissions", Aligned_paxos.default_config, 3, 2);
      ( "disk-style (no permissions)",
        { Aligned_paxos.mode = Aligned_paxos.Disk },
        3, 2 );
      (* with n=2, m=3 the memories are needed for the majority, so the
         memory path is on the critical path and the modes differ *)
      ("with permissions, memory-bound", Aligned_paxos.default_config, 2, 3);
      ( "disk-style, memory-bound",
        { Aligned_paxos.mode = Aligned_paxos.Disk },
        2, 3 );
    ]

(* ------------------------------------------------------------------ *)
(* D4: the slow path — Robust Backup & non-equivocating broadcast       *)
(* ------------------------------------------------------------------ *)

let exp_d4 env =
  section env "d4" "The slow path: Robust Backup delay; NEB latency (footnote 2)";
  let n = 3 and m = 3 in
  let report, _ = Robust_backup.run ~n ~m ~inputs:(inputs n) () in
  pr env "Robust Backup alone (n=%d, m=%d): first decision at %s delays@." n m
    (fmt_delay (Report.first_decision_time report));
  pr env "  history burden of the Clement et al. transform:@.";
  pr env "    longest attached history: %d entries; largest payload: %d bytes@."
    (Report.named report "trusted.max_history_entries")
    (Report.named report "trusted.max_payload_bytes");
  let fr, _, _ = Fast_robust.run ~n ~m ~inputs:(inputs n) () in
  pr env "Fast & Robust fast path:          first decision at %s delays@."
    (fmt_delay (Report.first_decision_time fr));
  (* NEB broadcast-to-delivery latency *)
  let open Rdma_mm in
  let open Rdma_sim in
  let neb_cfg = { Neb.default_config with give_up_at = 200.0; poll_interval = 1.0 } in
  let delivered_at = Array.make n nan in
  ignore
    (Instance.run
       ~setup:(fun cluster -> Neb.setup_regions cluster ~max_seq:neb_cfg.Neb.max_seq ())
       ~seed:1 ~n ~m
       ~spawn:(fun cluster pid ->
         Cluster.spawn cluster ~pid (fun ctx ->
             let neb =
               Neb.create ctx ~cfg:neb_cfg
                 ~deliver:(fun ~k:_ ~msg:_ ~src ->
                   if src = 0 then delivered_at.(pid) <- Engine.now ctx.Cluster.ctx_engine)
                 ()
             in
             Neb.spawn_poller ctx neb;
             if pid = 0 then Neb.broadcast neb "payload");
         fun () -> ())
       ());
  pr env "@.Non-equivocating broadcast delivery times (broadcast at t=0):@.";
  Array.iteri (fun pid t -> pr env "  p%d delivered at %.1f delays@." pid t) delivered_at;
  pr env "Paper (footnote 2): non-equivocating broadcast costs at least 6 delays,@.";
  pr env "which is why Clement et al. alone cannot give a 2-deciding algorithm.@."

(* ------------------------------------------------------------------ *)
(* D5: repeated consensus — "the leader terminates one instance and     *)
(* becomes the default leader in the next" (Section 5.1)                *)
(* ------------------------------------------------------------------ *)

(* The pmp engine is repeated Protected Memory Paxos as a log: instance
   i is log index i+1, which a replica decides when it applies it.
   Three replicas serve one client per instance, and every client
   submits its command at t=0.  Returns the moment the leader holds the
   commands (the first client request p0 receives) and, per instance,
   each replica's [(command, apply time)]. *)
let d5_run ?(faults = []) ~slots () =
  let open Rdma_mm in
  let open Rdma_smr in
  let replicas = 3 in
  let cfg =
    { Consensus_engine.default_config with
      replicas; max_entries = slots; serve_until = 200.0 }
  in
  let origin = ref nan in
  let decided = Array.init slots (fun _ -> Array.make replicas None) in
  let spawn cluster pid =
    (if pid < replicas then
       let r = Smr_log.spawn_replica cluster ~cfg ~pid () in
       Smr_log.on_commit r (fun ~index ~cmd ->
           if index <= slots && decided.(index - 1).(pid) = None then
             decided.(index - 1).(pid) <-
               Some (cmd, Rdma_sim.Engine.now (Cluster.engine cluster)))
     else
       Cluster.spawn cluster ~pid (fun ctx ->
           ignore
             (Smr_log.submit ctx ~cfg ~seq:0
                ~cmd:(Printf.sprintf "cmd%d" (pid - replicas))
                ~timeout:150.0)));
    fun () -> ()
  in
  let first_request cluster =
    Obs.subscribe (Cluster.obs cluster) (fun ~at ~actor:_ ev ->
        match (ev : Event.t) with
        | Event.Net_deliver { src; dst = 0 }
          when src >= replicas && Float.is_nan !origin ->
            origin := at
        | _ -> ())
  in
  ignore
    (Instance.run ~legal_change:(Smr_log.legal_change cfg)
       ~setup:(fun cluster -> Smr_log.setup_regions cluster cfg)
       ~prepare:first_request ~faults ~seed:1 ~n:(replicas + slots) ~m:3
       ~spawn ());
  (!origin, decided)

let exp_d5 env =
  section env "d5" "Repeated Protected Memory Paxos: two delays per decision";
  let slots = 6 in
  let origin, decided = d5_run ~slots () in
  pr env "%-10s %-16s %-14s@." "instance" "first (delays)" "delta";
  let prev = ref 0.0 in
  Array.iteri
    (fun i per_replica ->
      match List.filter_map (Option.map snd) (Array.to_list per_replica) with
      | [] -> pr env "%-10d %-16s@." i "-"
      | times ->
          let t = List.fold_left Float.min infinity times -. origin in
          pr env "%-10d %-16.1f %-14.1f@." i t (t -. !prev);
          prev := t)
    decided;
  pr env "@.Steady state: every instance costs exactly one replicated write@.";
  pr env "(2 delays) because the leader retains the write permission.@.";
  pr env "Times count from t=%.1f, when the leader holds the clients' commands.@."
    origin;
  (* and across a leader crash *)
  let crash_at = 4.5 in
  let faults = [ Fault.Crash_process { pid = 0; at = origin +. crash_at } ] in
  let _, crashed = d5_run ~faults ~slots () in
  let values per_replica =
    List.sort_uniq compare (List.filter_map (Option.map fst) (Array.to_list per_replica))
  in
  let agreement = Array.for_all (fun d -> List.length (values d) <= 1) crashed in
  let preserved =
    Array.for_all2
      (fun before after ->
        Array.for_all
          (function
            | Some (_, at) when at -. origin < crash_at -> values after = values before
            | _ -> true)
          before)
      decided crashed
  in
  pr env "With a leader crash at t=%.1f: per-instance agreement across the@." crash_at;
  pr env "takeover = %s; instances decided before the crash keep their values.@."
    (check (agreement && preserved))

(* ------------------------------------------------------------------ *)
(* D6: a BFT log from Fast & Robust per slot                            *)
(* ------------------------------------------------------------------ *)

let exp_d6 env =
  section env "d6" "BFT log: Fast & Robust per slot, pipelined 2-delay appends";
  let n = 3 and m = 3 in
  let input_for ~pid ~slot = Printf.sprintf "cmd%d.%d" pid slot in
  let cfg = { Rdma_smr.Bft_log.default_config with slots = 4 } in
  let reports, _ = Rdma_smr.Bft_log.run ~cfg ~n ~m ~input_for () in
  pr env "%-8s %-18s %-12s %-10s@." "slot" "appended (delays)" "agreement" "decided";
  Array.iteri
    (fun i report ->
      pr env "%-8d %-18s %-12s %d/%d@." i
        (fmt_delay (Report.first_decision_time report))
        (check (Report.agreement_ok report))
        (Report.decided_count report) n)
    reports;
  pr env "@.Each slot is one weak-Byzantine-agreement instance (Theorem 4.9) in@.";
  pr env "its own namespace; the honest leader appends with one signature and@.";
  pr env "one replicated write per slot.  Under a Byzantine leader every slot@.";
  pr env "falls back to Preferential Paxos and correct replicas still agree:@.";
  let base =
    { Fast_robust.default_config with
      cheap_quorum = { Cheap_quorum.default_config with fast_timeout = 30.0 } }
  in
  let byz_cfg = { Rdma_smr.Bft_log.slots = 2; base } in
  let byzantine = [ (0, fun _ -> ()) ] in
  let faults = [ Fault.Set_leader { pid = 1; at = 0.0 } ] in
  let reports, byz =
    Rdma_smr.Bft_log.run ~cfg:byz_cfg ~n ~m ~input_for ~byzantine ~faults ()
  in
  Array.iteri
    (fun i report ->
      pr env "  slot %d: decided %s at %s delays, agreement %s@." i
        (match Report.decision_value report with Some v -> v | None -> "-")
        (fmt_delay (Report.first_decision_time report))
        (check (Report.agreement_ok ~ignore_pids:byz report)))
    reports

(* ------------------------------------------------------------------ *)
(* D7: the SMR application layer — append latency and failover downtime *)
(* ------------------------------------------------------------------ *)

let exp_d7 env =
  section env "d7" "Replicated log (Mu-style SMR): append latency and failover downtime";
  let open Rdma_mm in
  let open Rdma_smr in
  let cfg =
    { Consensus_engine.default_config with replicas = 3; max_entries = 32; serve_until = 600.0 }
  in
  let crash_at = 10.0 in
  let commits = ref [] in
  let spawn cluster pid =
    (if pid < cfg.Consensus_engine.replicas then
       ignore (Smr_log.spawn_replica cluster ~cfg ~pid ())
     else
       Cluster.spawn cluster ~pid (fun ctx ->
           let rec loop seq =
             if seq < 12 then begin
               let cmd = Printf.sprintf "cmd%d" seq in
               match Smr_log.submit ctx ~cfg ~seq ~cmd ~timeout:200.0 with
               | Some index ->
                   commits :=
                     (index, Rdma_sim.Engine.now ctx.Cluster.ctx_engine) :: !commits;
                   loop (seq + 1)
               | None -> loop (seq + 1)
             end
           in
           loop 0));
    fun () -> ()
  in
  ignore
    (Instance.run ~legal_change:(Smr_log.legal_change cfg)
       ~setup:(fun cluster -> Smr_log.setup_regions cluster cfg)
       ~faults:[ Crash_process { pid = 0; at = crash_at } ]
       ~seed:1 ~n:(cfg.Consensus_engine.replicas + 1) ~m:3 ~spawn ());
  let commits = List.rev !commits in
  pr env "client-observed commit times (leader crash at t=%.0f):@." crash_at;
  let prev = ref 0.0 in
  List.iter
    (fun (index, at) ->
      pr env "  index %-3d committed at %6.1f  (+%.1f)%s@." index at (at -. !prev)
        (if !prev <= crash_at && at > crash_at then "   <- failover gap" else "");
      prev := at)
    commits;
  (match
     List.partition (fun (_, at) -> at <= crash_at) commits
   with
  | (_ :: _ as before), (_, first_after) :: _ ->
      let _, last_before = List.nth before (List.length before - 1) in
      pr env "@.steady-state append RTT: 4 delays (send 1 + replicated write 2 + ack 1)@.";
      pr env "failover downtime: %.1f delays (detection + permission grab + log read/rewrite)@."
        (first_after -. last_before)
  | _ -> ())

(* ------------------------------------------------------------------ *)
(* A1: ablations of the design choices (DESIGN.md section 4)            *)
(* ------------------------------------------------------------------ *)

let exp_a1 env =
  section env "a1" "Ablations: what each mechanism buys";
  (* 1. history validation in Robust Backup *)
  pr env "1. Clement et al. history validation (Robust Backup):@.";
  let attack = [ (1, Attacks.rb_spurious_decide ~value:"evil") ] in
  let with_v, _ = Robust_backup.run ~n:3 ~m:3 ~inputs:(inputs 3) ~byzantine:attack () in
  let cfg_off = { Robust_backup.default_config with validate = false } in
  let without_v, _ =
    Robust_backup.run ~cfg:cfg_off ~n:3 ~m:3 ~inputs:(inputs 3) ~byzantine:attack ()
  in
  pr env "   spurious Decide attack, validator ON : decided %s (evil rejected: %s)@."
    (match Report.decision_value with_v with Some v -> v | None -> "-")
    (check (Report.decision_value with_v <> Some "evil"));
  pr env "   spurious Decide attack, validator OFF: decided %s (attack lands)@."
    (match Report.decision_value without_v with Some v -> v | None -> "-");
  (* 2. Cheap Quorum timeout sensitivity *)
  pr env "@.2. Cheap Quorum fast timeout vs decision latency under a silent leader:@.";
  List.iter
    (fun fast_timeout ->
      let cq = { Cheap_quorum.default_config with fast_timeout } in
      let cfg = { Fast_robust.default_config with cheap_quorum = cq } in
      let byzantine = [ (0, Attacks.cq_silent_leader) ] in
      let faults = [ Fault.Set_leader { pid = 1; at = 0.0 } ] in
      let report, _, _ =
        Fast_robust.run ~cfg ~n:3 ~m:3 ~inputs:(inputs 3) ~byzantine ~faults ()
      in
      pr env "   timeout=%5.0f -> first correct decision at %s delays@." fast_timeout
        (fmt_delay (Report.first_decision_time report)))
    [ 20.0; 60.0; 120.0 ];
  pr env "   (the timeout bounds the fast path's failure detection; the paper's@.";
  pr env "   footnote 3 assumes it covers common-case delays)@.";
  (* 3. NEB poll cadence vs slow-path latency *)
  pr env "@.3. NEB poll interval vs Robust Backup decision time:@.";
  List.iter
    (fun poll_interval ->
      let cfg =
        { Robust_backup.default_config with
          trusted = { Neb.ns = ""; max_seq = 128; poll_interval; give_up_at = 4000.0 } }
      in
      let report, _ = Robust_backup.run ~cfg ~n:3 ~m:3 ~inputs:(inputs 3) () in
      pr env "   poll=%4.1f -> first decision at %s delays (%d memory ops)@."
        poll_interval
        (fmt_delay (Report.first_decision_time report))
        report.Report.mem_ops)
    [ 0.5; 1.0; 2.0; 4.0 ]

(* ------------------------------------------------------------------ *)
(* L1: Theorem 6.1 — dynamic permissions are necessary                  *)
(* ------------------------------------------------------------------ *)

let exp_l1 env =
  section env "l1" "Theorem 6.1: no 2-deciding consensus from static-permission memory";
  let s = Two_delay_probe.run_synchronous () in
  pr env "optimistic candidate, common case:      decides at %.1f delays, \
          agreement %s@."
    s.Two_delay_probe.first_decision_at
    (check (not s.Two_delay_probe.agreement_violated));
  let a = Two_delay_probe.run_adversarial () in
  pr env "same candidate, Theorem 6.1 schedule:   agreement violated = %b@."
    a.Two_delay_probe.agreement_violated;
  List.iter
    (fun (pid, v, t) -> pr env "    p%d decided %S at %.1f@." pid v t)
    a.Two_delay_probe.decisions;
  let r = Two_delay_probe.run_adversarial_with_revocation () in
  pr env "with dynamic-permission revocation:     agreement violated = %b@."
    r.Two_delay_probe.agreement_violated;
  (* Disk Paxos (static permissions) can never be 2-deciding *)
  let times =
    List.map
      (fun seed ->
        Report.first_decision_time (Disk_paxos.run ~seed ~n:3 ~m:3 ~inputs:(inputs 3) ()))
      [ 1; 2; 3; 4; 5 ]
  in
  pr env "Disk Paxos (static perms) first-decision times over 5 seeds: %a@."
    Fmt.(list ~sep:(any ", ") (option ~none:(any "-") (fmt "%.1f")))
    times;
  pr env "All >= 4.0, consistent with the lower bound.@."

(* ------------------------------------------------------------------ *)
(* F1: Figure 1 — the model itself                                      *)
(* ------------------------------------------------------------------ *)

let exp_f1 env =
  section env "f1" "Figure 1: the M&M model with permissions (self-check)";
  let open Rdma_sim in
  let open Rdma_mem in
  let engine = Engine.create () in
  let mem = Memory.create ~engine ~mid:0 () in
  Memory.add_region mem ~name:"mr1" ~perm:(Permission.swmr ~writer:0 ~n:3)
    ~registers:[ "r1"; "r2" ];
  Memory.add_region mem
    ~name:"mr2"
    ~perm:(Permission.make ~read:[ 1 ] ~write:[ 2 ] ())
    ~registers:[ "r3" ];
  pr env "memory 0 regions:@.";
  List.iter
    (fun name ->
      match Memory.region_perm mem name with
      | Some p -> pr env "  %-6s %a@." name Permission.pp p
      | None -> ())
    (Memory.region_names mem);
  ignore
    (Engine.spawn engine "probe" (fun () ->
         let w_ok = Ivar.await (Memory.write_async mem ~from:0 ~region:"mr1" ~reg:"r1" "x") in
         let w_bad = Ivar.await (Memory.write_async mem ~from:1 ~region:"mr1" ~reg:"r1" "y") in
         let r_ok = Ivar.await (Memory.read_async mem ~from:2 ~region:"mr1" ~reg:"r1") in
         let r_bad = Ivar.await (Memory.read_async mem ~from:0 ~region:"mr2" ~reg:"r3") in
         pr env "  owner write -> %s | intruder write -> %s@."
           ((if w_ok = Memory.Ack then "ack" else "nak")
           [@simlint.allow
             "F1 permission demo: prints the completion status itself; \
              no remote-visibility claim"])
           ((if w_bad = Memory.Ack then "ack" else "nak")
           [@simlint.allow "F1 same permission demo as the line above"]);
         pr env "  reader read -> %s | out-of-R read -> %s@."
           (match r_ok with Memory.Read _ -> "ack" | _ -> "nak")
           (match r_bad with Memory.Read _ -> "ack" | _ -> "nak")));
  Engine.run engine;
  pr env "Operation timing: message = 1 delay; memory op = 2 delays (both checked@.";
  pr env "in the unit tests); permissions enforced at the memory, not the caller.@."

(* ------------------------------------------------------------------ *)
(* F6: Figure 6 — component interactions of Fast & Robust               *)
(* ------------------------------------------------------------------ *)

let exp_f6 env =
  section env "f6" "Figure 6: Cheap Quorum -> (abort values) -> Preferential Paxos";
  let n = 3 and m = 3 in
  (* force the fast path to abort: the leader stays silent *)
  let byzantine = [ (0, Attacks.cq_silent_leader) ] in
  let faults = [ Fault.Set_leader { pid = 1; at = 0.0 } ] in
  let cq_cfg = { Cheap_quorum.default_config with fast_timeout = 40.0 } in
  let cfg = { Fast_robust.default_config with cheap_quorum = cq_cfg } in
  let report, byz, cluster =
    Fast_robust.run ~cfg ~n ~m ~inputs:(inputs n) ~byzantine ~faults
      ~prepare:(fun c -> Obs.set_recording (Rdma_mm.Cluster.obs c) true)
      ()
  in
  pr env "Component hand-off events (the arrows of Figure 6):@.";
  List.iter
    (function
      | at, actor, Event.Custom { name; detail }
        when name = Fast_robust.handoff_event ->
          pr env "  [%6.2f] %-12s %s@." at actor detail
      | _ -> ())
    (Obs.events (Rdma_mm.Cluster.obs cluster));
  pr env "@.Final decisions (via the backup path):@.";
  Array.iteri
    (fun pid d ->
      match d with
      | Some { Report.value; at } -> pr env "  p%d decided %S at %.1f@." pid value at
      | None -> pr env "  p%d: no decision%s@." pid (if List.mem pid byz then " (Byzantine)" else ""))
    report.Report.decisions;
  pr env "agreement among correct: %s@."
    (check (Report.agreement_ok ~ignore_pids:byz report))

(* ------------------------------------------------------------------ *)
(* M1: memory-crash tolerance sweep (m >= 2fM + 1)                      *)
(* ------------------------------------------------------------------ *)

let exp_m1 env =
  section env "m1" "Memory failures: every algorithm tolerates fM < m/2 crashed memories";
  pr env "m = 5 memories; crash the first k at t=0.@.";
  pr env "%-24s %-10s %-10s %-10s %-14s@." "algorithm" "k=0" "k=1" "k=2"
    "k=3 (majority)";
  let sweep name run =
    let result k =
      let faults = List.init k (fun mid -> Fault.Crash_memory { mid; at = 0.0 }) in
      let report = run ~faults in
      if Report.decided_count report > 0 then
        Printf.sprintf "%s" (fmt_delay (Report.first_decision_time report))
      else "stuck"
    in
    pr env "%-24s %-10s %-10s %-10s %-14s@." name (result 0) (result 1) (result 2)
      (result 3)
  in
  sweep "Protected Memory Paxos" (fun ~faults ->
      Protected_paxos.run ~n:2 ~m:5 ~inputs:(inputs 2) ~faults ());
  sweep "Disk Paxos" (fun ~faults -> Disk_paxos.run ~n:2 ~m:5 ~inputs:(inputs 2) ~faults ());
  sweep "Fast & Robust" (fun ~faults ->
      let r, _, _ = Fast_robust.run ~n:3 ~m:5 ~inputs:(inputs 3) ~faults () in
      r);
  sweep "Robust Backup" (fun ~faults ->
      fst (Robust_backup.run ~n:3 ~m:5 ~inputs:(inputs 3) ~faults ()));
  pr env "@.(Aligned Paxos counts memories as agents — it may even survive a@.";
  pr env "memory majority if enough processes survive; see D3.)@.";
  let faults = List.init 3 (fun mid -> Fault.Crash_memory { mid; at = 0.0 }) in
  let r = Aligned_paxos.run ~n:5 ~m:5 ~inputs:(inputs 5) ~faults () in
  pr env "Aligned Paxos n=5, m=5, 3 memories crashed (7/10 agents alive): %s@."
    (if Report.decided_count r > 0 then "decides" else "stuck")

(* ------------------------------------------------------------------ *)
(* O1: the telemetry subsystem itself — per-phase latency breakdown     *)
(* ------------------------------------------------------------------ *)

let exp_o1 env =
  section env "o1" "Observability: per-phase latency percentiles and trace export";
  let n = 3 and m = 3 in
  let row name run =
    let captured = ref None in
    let prepare cluster =
      captured := Some cluster;
      if env.trace_out <> None then
        Obs.set_recording (Rdma_mm.Cluster.obs cluster) true
    in
    let report = run ~prepare in
    pr env "@.%s (n=%d, m=%d), first decision %s delays:@." name n m
      (fmt_delay (Report.first_decision_time report));
    pr env "%a@." Report.pp_phases report;
    !captured
  in
  let (_ : _ option) =
    row "Paxos" (fun ~prepare -> Paxos.run ~n ~inputs:(inputs n) ~prepare ())
  in
  let (_ : _ option) =
    row "Fast & Robust" (fun ~prepare ->
        let r, _, _ = Fast_robust.run ~n ~m ~inputs:(inputs n) ~prepare () in
        r)
  in
  let captured =
    row "Protected Memory Paxos" (fun ~prepare ->
        Protected_paxos.run ~n ~m ~inputs:(inputs n) ~prepare ())
  in
  match captured with
  | None -> ()
  | Some cluster ->
      let obs = Rdma_mm.Cluster.obs cluster in
      Option.iter
        (fun file ->
          env.exports <- env.exports @ [ (file, Export.render_trace obs ~file) ];
          pr env "@.trace (protected-paxos run) written to %s (%d entries)@."
            file (Obs.entry_count obs))
        env.trace_out;
      Option.iter
        (fun file ->
          env.exports <- env.exports @ [ (file, Export.metrics obs) ];
          pr env "metrics (protected-paxos run) written to %s@." file)
        env.metrics_out

(* ------------------------------------------------------------------ *)
(* C1: chaos exploration — violation rates across the registry          *)
(* ------------------------------------------------------------------ *)

let exp_c1 env =
  section env "c1"
    "Chaos: seeded nemesis schedules vs the invariant oracle, all scenarios";
  let open Rdma_chaos in
  pr env
    "@.%d schedules per scenario (seed base 1), nemesis within each fault \
     model; Byzantine scenarios also draw attacks and arm phase-boundary \
     triggers:@.@."
    100;
  pr env "%-18s %-10s %-6s %-10s %-12s@." "scenario" "schedules" "ok"
    "violations" "mode";
  List.iter
    (fun scenario ->
      let byz = scenario.Scenario.attack_pool <> [] in
      let options =
        { Explore.default_options with
          runs = 100; seed = 1; adversary = true; byz; jobs = env.jobs }
      in
      let batch = Explore.explore ~options scenario in
      pr env "%-18s %-10d %-6d %-10d %-12s@." scenario.Scenario.name
        (Explore.total batch) batch.Explore.passed
        (List.length batch.Explore.failures)
        (if byz then "byz+trigger" else "trigger"))
    Scenario.all;
  (* The shrinker, demonstrated: unleash the budget past Paxos's fault
     model (majority crashes become possible) and minimize the first
     violating schedule. *)
  let paxos = Option.get (Scenario.find "paxos") in
  let options =
    { Explore.default_options with
      runs = 10; seed = 1; over_budget = true; jobs = env.jobs }
  in
  let batch = Explore.explore ~options paxos in
  match batch.Explore.failures with
  | [] -> pr env "@.over-budget paxos: no violation in 10 schedules (unexpected)@."
  | f :: _ ->
      pr env
        "@.over-budget paxos seed %d: %d-fault schedule shrunk to %d faults (%d \
         probe runs):@."
        f.Explore.outcome.Scenario.case.Nemesis.case_seed
        (List.length f.Explore.outcome.Scenario.case.Nemesis.faults)
        (List.length f.Explore.repro.Repro.faults)
        f.Explore.shrink_probes;
      pr env "  %a@." Fmt.(list ~sep:(any ", ") Fault.pp) f.Explore.repro.Repro.faults;
      List.iter
        (fun v -> pr env "  violation: %s@." v)
        f.Explore.repro.Repro.violations

(* ------------------------------------------------------------------ *)
(* W2: weak memory ordering — chaos grids under each ordering model     *)
(* ------------------------------------------------------------------ *)

let exp_w2 env =
  section env "w2"
    "Weak memory ordering: chaos grids under strict / completion-lag / \
     reordered-qp";
  let open Rdma_chaos in
  let modes =
    [
      Rdma_mem.Ordering.Strict;
      Rdma_mem.Ordering.completion_lag;
      Rdma_mem.Ordering.reorder_qp;
    ]
  in
  pr env "@.100 adversary schedules per scenario per mode (seed base 1).  A@.";
  pr env "forced ordering mode consumes no nemesis draws, so each weak-mode@.";
  pr env "schedule is its strict twin with one Set_ordering fault prepended:@.";
  pr env "the columns differ only in the memory model.@.@.";
  pr env "%-18s %-16s %-16s %-16s@." "scenario" "strict" "completion-lag"
    "reordered-qp";
  List.iter
    (fun scenario ->
      let byz = scenario.Scenario.attack_pool <> [] in
      let cell mode =
        let options =
          { Explore.default_options with
            runs = 100; seed = 1; adversary = true; byz;
            ordering = Some mode; jobs = env.jobs }
        in
        let batch = Explore.explore ~options scenario in
        Printf.sprintf "%d/%d ok" batch.Explore.passed (Explore.total batch)
      in
      match List.map cell modes with
      | [ a; b; c ] ->
          pr env "%-18s %-16s %-16s %-16s@." scenario.Scenario.name a b c
      | _ -> assert false)
    Scenario.all;
  pr env "@.Why the grid is clean (see EXPERIMENTS.md for the per-algorithm@.";
  pr env "argument): disk-paxos self-fences — every round is an awaited write@.";
  pr env "followed by a same-QP read-back, and reads order after the issuer's@.";
  pr env "own writes; the protected/aligned family is covered by permission@.";
  pr env "changes draining the data plane (dynamic permissions subsume@.";
  pr env "fencing); message-only algorithms never touch the weak substrate;@.";
  pr env "and SWMR readers treat bounded staleness as not-yet-written.  The@.";
  pr env "one genuine casualty was swmr-recovery's repair sweep under@.";
  pr env "reordered-qp — a fastest-majority read could miss the rejoined@.";
  pr env "replica on every sweep — fixed structurally with a grace-window@.";
  pr env "await-all read, not with a fence.@."

(* ------------------------------------------------------------------ *)
(* R1: recovery — memory rejoin and state-transfer latency (SMR log)    *)
(* ------------------------------------------------------------------ *)

let exp_r1 env =
  section env "r1" "Recovery: crashed-memory rejoin and state-transfer latency (SMR log)";
  let open Rdma_mm in
  let open Rdma_smr in
  pr env "A replica memory crashes at t=20 and rejoins EMPTY at t=40 under a@.";
  pr env "fresh epoch; the leader detects the rejoin and re-replicates@.";
  pr env "(checkpoint + live entries).  Repair latency is measured from the@.";
  pr env "Mem_restart telemetry event to the smr.repair event.@.@.";
  pr env "%-18s %-9s %-7s %-16s %-12s@." "checkpoint_every" "commits" "ckpts"
    "repair (delays)" "fully fresh";
  List.iter
    (fun checkpoint_every ->
      let cfg =
        { Consensus_engine.default_config with
          replicas = 3; max_entries = 32; serve_until = 300.0; checkpoint_every }
      in
      let spawn cluster pid =
        if pid < cfg.Consensus_engine.replicas then begin
          let r = Smr_log.spawn_replica cluster ~cfg ~pid () in
          fun () -> Some r
        end
        else begin
          Cluster.spawn cluster ~pid (fun ctx ->
              for seq = 0 to 11 do
                ignore
                  (Smr_log.submit ctx ~cfg ~seq
                     ~cmd:(Printf.sprintf "cmd%d" seq)
                     ~timeout:200.0)
              done);
          fun () -> None
        end
      in
      let restart_at = ref nan and repaired_at = ref nan in
      let watch_repair cluster =
        Obs.subscribe (Cluster.obs cluster) (fun ~at ~actor:_ ev ->
            match (ev : Event.t) with
            | Event.Mem_restart { mid = 1; _ } -> restart_at := at
            | Event.Custom { name = "smr.repair"; detail = "mu1" } ->
                if Float.is_nan !repaired_at then repaired_at := at
            | _ -> ())
      in
      let cluster, results =
        Instance.run ~legal_change:(Smr_log.legal_change cfg)
          ~setup:(fun cluster -> Smr_log.setup_regions cluster cfg)
          ~prepare:watch_repair
          ~faults:
            [
              Fault.Crash_memory { mid = 1; at = 20.0 };
              Fault.Recover_memory { mid = 1; at = 40.0 };
            ]
          ~seed:1 ~n:(cfg.Consensus_engine.replicas + 1) ~m:3 ~spawn ()
      in
      let replicas = Array.to_list results |> List.filter_map Option.join in
      let stale =
        Rdma_mem.Memory.stale_registers (Cluster.memory cluster 1)
          ~region:Smr_log.region
      in
      pr env "%-18d %-9d %-7d %-16s %-12s@." checkpoint_every
        (Smr_log.applied_count (List.hd replicas))
        (Obs.counter (Cluster.obs cluster) "smr.checkpoints")
        (if Float.is_nan !repaired_at || Float.is_nan !restart_at then "-"
         else Printf.sprintf "%.1f" (!repaired_at -. !restart_at))
        (check (stale = [])))
    [ 0; 4; 2 ];
  pr env "@.With checkpointing the transfer is one snapshot register plus the@.";
  pr env "live tail instead of the whole log; either way the rejoined memory@.";
  pr env "ends fully fresh (stale_registers = []), so it counts toward read@.";
  pr env "quorums again without ever serving its lost state as bottom.@."

(* ------------------------------------------------------------------ *)
(* V1: engine head-to-head — pmp vs velos (one-sided Paxos + leases)    *)
(* ------------------------------------------------------------------ *)

(* One measured run of an SMR engine: 3 replicas plus a client that
   submits commands and then issues linearizable reads, with per-phase
   virtual-delay and substrate-op accounting.  [crash] kills the
   leader mid-stream so the largest inter-ack interval measures the
   failover gap (detection + recovery + — for velos — the lease wait). *)
type v1_row = {
  v1_commits : int;
  v1_commit_delay : float;  (* avg virtual delays per acked submit *)
  v1_read_delay : float;  (* avg virtual delays per linearizable read *)
  v1_leased : int;  (* velos: reads served off the local lease *)
  v1_paid : int;  (* read rounds that touched memory (pmp lease-write
                     confirms + velos quorum fallbacks) *)
  v1_msgs : int;
  v1_mem_ops : int;
  v1_agree : bool;  (* surviving replicas applied identical logs *)
  v1_gap : float;  (* crash runs: largest gap between client acks *)
  v1_lease_waits : int;  (* velos: successors that waited out a lease *)
}

let v1_run (engine : Rdma_smr.Consensus_engine.engine) ~mode ~crash =
  let open Rdma_mm in
  let open Rdma_smr in
  let module E = (val engine : Consensus_engine.S) in
  let cfg =
    {
      Consensus_engine.default_config with
      replicas = 3;
      max_entries = 48;
      serve_until = 300.0;
      checkpoint_every = 5;
      anti_entropy_every = 10.0;
      (* Long enough that every steady-state read lands under the lease
         (velos refreshes it at reign start) and that a failover
         successor genuinely has a remaining term to wait out. *)
      lease_duration = 100.0;
    }
  in
  let n_cmds = if crash then 10 else 8 in
  let commit_delays = ref [] and read_delays = ref [] in
  let ack_times = ref [] in
  let client (ctx : string Cluster.ctx) =
    let eng = ctx.Cluster.ctx_engine in
    for seq = 0 to n_cmds - 1 do
      let t0 = Rdma_sim.Engine.now eng in
      (* Retry past failovers; a committed-but-unacked submit is
         deduplicated by (client, seq) on the next attempt. *)
      let rec attempt () =
        if Rdma_sim.Engine.now eng < 150.0 then
          match
            E.submit ctx ~cfg ~seq
              ~cmd:(Printf.sprintf "c%d" seq)
              ~timeout:30.0
          with
          | Some _ ->
              commit_delays :=
                (Rdma_sim.Engine.now eng -. t0) :: !commit_delays;
              ack_times := Rdma_sim.Engine.now eng :: !ack_times
          | None -> attempt ()
      in
      attempt ()
    done;
    for seq = 100 to 105 do
      let t0 = Rdma_sim.Engine.now eng in
      match E.linearizable_read ctx ~cfg ~seq ~timeout:30.0 with
      | Some _ ->
          read_delays := (Rdma_sim.Engine.now eng -. t0) :: !read_delays
      | None -> ()
    done
  in
  let spawn cluster pid =
    if pid < cfg.Consensus_engine.replicas then begin
      let r = E.spawn_replica cluster ~cfg ~pid () in
      fun () -> Some r
    end
    else begin
      Cluster.spawn cluster ~pid client;
      fun () -> None
    end
  in
  let faults =
    (match (mode : Rdma_mem.Ordering.mode) with
    | Rdma_mem.Ordering.Strict -> []
    | m -> [ Fault.Set_ordering { mode = m } ])
    @ if crash then [ Fault.Crash_process { pid = 0; at = 40.0 } ] else []
  in
  let cluster, results =
    Instance.run ~legal_change:(E.legal_change cfg)
      ~setup:(fun cluster -> E.setup_regions cluster cfg)
      ~faults ~seed:1 ~n:4 ~m:3 ~spawn ()
  in
  let replicas = Array.to_list results |> List.filter_map Option.join in
  let obs = Cluster.obs cluster in
  let logs =
    List.map E.applied_entries replicas
    |> List.filteri (fun pid _ -> not (crash && pid = 0))
  in
  let agree =
    match logs with [] -> false | l :: rest -> List.for_all (( = ) l) rest
  in
  let avg = function
    | [] -> nan
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  let gap =
    match List.sort compare !ack_times with
    | [] | [ _ ] -> nan
    | t :: rest ->
        let worst, _ =
          List.fold_left
            (fun (worst, prev) t -> (Float.max worst (t -. prev), t))
            (0.0, t) rest
        in
        worst
  in
  {
    v1_commits = E.applied_count (List.nth replicas 1);
    v1_commit_delay = avg !commit_delays;
    v1_read_delay = avg !read_delays;
    v1_leased = Obs.counter obs "velos.reads.leased";
    v1_paid =
      Obs.counter obs "smr.reads.confirm" + Obs.counter obs "velos.reads.quorum";
    v1_msgs = Obs.counter obs "net.msgs.sent";
    v1_mem_ops = Obs.counter obs "mem.ops";
    v1_agree = agree;
    v1_gap = gap;
    v1_lease_waits = Obs.counter obs "velos.lease.waits";
  }

let exp_v1 env =
  section env "v1"
    "Engine head-to-head: pmp (RPC log on Protected Memory Paxos) vs \
     velos (one-sided Paxos, passive memories, leader leases)";
  let open Rdma_smr in
  let modes =
    [
      Rdma_mem.Ordering.Strict;
      Rdma_mem.Ordering.completion_lag;
      Rdma_mem.Ordering.reorder_qp;
    ]
  in
  pr env "Same workload against both consensus engines: 8 client commands@.";
  pr env "followed by 6 linearizable reads, 3 replicas / 3 memories.  pmp@.";
  pr env "replicates through follower processes (messages); velos writes@.";
  pr env "follower memories directly (one-sided ops) and serves reads off a@.";
  pr env "quorum-acked leader lease on virtual time.@.@.";
  let steady =
    List.map
      (fun engine ->
        let module E = (val engine : Consensus_engine.S) in
        ( E.name,
          List.map (fun mode -> (mode, v1_run engine ~mode ~crash:false)) modes
        ))
      Engines.all
  in
  pr env "-- steady state (strict ordering) --------------------------------@.";
  pr env "%-7s %-8s %-13s %-11s %-7s %-6s %-6s %-8s@." "engine" "commits"
    "commit (dly)" "read (dly)" "leased" "paid" "msgs" "mem-ops";
  List.iter
    (fun (name, rows) ->
      let r = List.assoc Rdma_mem.Ordering.Strict rows in
      pr env "%-7s %-8d %-13.1f %-11.1f %-7d %-6d %-6d %-8d@." name
        r.v1_commits r.v1_commit_delay r.v1_read_delay r.v1_leased r.v1_paid
        r.v1_msgs r.v1_mem_ops)
    steady;
  pr env "@.The trade the paper's Section 6 predicts: velos moves replication@.";
  pr env "cost from the message plane onto one-sided memory ops, and its@.";
  pr env "leased reads never touch memory at all — the perf baseline pins@.";
  pr env "mem.ops.issued = 0 under the velos.read.leased profiler scope,@.";
  pr env "against 3 issued writes per pmp.read.lease confirm round ('paid'@.";
  pr env "counts read rounds that had to touch memory).@.@.";
  pr env "-- weak memory-ordering grid -------------------------------------@.";
  pr env "%-7s %-16s %-8s %-13s %-6s@." "engine" "ordering" "commits"
    "commit (dly)" "agree";
  List.iter
    (fun (name, rows) ->
      List.iter
        (fun (mode, r) ->
          pr env "%-7s %-16s %-8d %-13.1f %-6s@." name
            (Rdma_mem.Ordering.name mode)
            r.v1_commits r.v1_commit_delay (check r.v1_agree))
        rows)
    steady;
  pr env "@.Both engines keep agreement under completion-lag and reordered-qp@.";
  pr env "because their commit points sit behind fences/acks, not behind@.";
  pr env "local completions (the chaos ordering axis hunts for violations@.";
  pr env "of exactly this).@.@.";
  pr env "-- leader failover (crash p0 at t=40, strict) --------------------@.";
  pr env "%-7s %-8s %-12s %-13s %-6s@." "engine" "commits" "gap (dly)"
    "lease waits" "agree";
  List.iter
    (fun engine ->
      let module E = (val engine : Consensus_engine.S) in
      let r = v1_run engine ~mode:Rdma_mem.Ordering.Strict ~crash:true in
      pr env "%-7s %-8d %-12.1f %-13d %-6s@." E.name r.v1_commits r.v1_gap
        r.v1_lease_waits (check r.v1_agree))
    Engines.all;
  pr env "@.Failover is where leases bill you: a velos successor must wait@.";
  pr env "out the deposed leader's lease (lease waits > 0) before serving@.";
  pr env "reads, so its ack gap carries the remaining lease term on top of@.";
  pr env "detection + recovery.  pmp pays nothing extra — its reads were@.";
  pr env "never local to begin with.  Cheap reads are a loan against@.";
  pr env "failover latency.@."

(* ------------------------------------------------------------------ *)
(* B1: wall-clock microbenches (Bechamel)                               *)
(* ------------------------------------------------------------------ *)

let bechamel_benches env =
  section env "b1" "Bechamel wall-clock microbenches (simulator + crypto + algorithms)";
  let open Bechamel in
  let open Toolkit in
  let test_of (name, f) = Test.make ~name (Staged.stage f) in
  let tests =
    List.map test_of
      [
        ("sha256/1KiB", fun () -> ignore (Rdma_crypto.Sha256.digest_string (String.make 1024 'x')));
        ("hmac/64B", fun () -> ignore (Rdma_crypto.Hmac.mac ~key:"k" (String.make 64 'm')));
        ( "sim/10k-events",
          fun () ->
            let open Rdma_sim in
            let e = Engine.create () in
            for i = 1 to 10_000 do
              Engine.schedule e (float_of_int i) (fun () -> ())
            done;
            Engine.run e );
        (* one full simulated consensus instance per algorithm (T1/D1/D2
           rows as wall-clock costs) *)
        ("paxos/n3", fun () -> ignore (Paxos.run ~n:3 ~inputs:(inputs 3) ()));
        ("fast-paxos/n3", fun () -> ignore (Fast_paxos.run ~n:3 ~inputs:(inputs 3) ()));
        ( "disk-paxos/n3m3",
          fun () -> ignore (Disk_paxos.run ~n:3 ~m:3 ~inputs:(inputs 3) ()) );
        ( "protected-paxos/n3m3",
          fun () -> ignore (Protected_paxos.run ~n:3 ~m:3 ~inputs:(inputs 3) ()) );
        ( "aligned-paxos/n3m2",
          fun () -> ignore (Aligned_paxos.run ~n:3 ~m:2 ~inputs:(inputs 3) ()) );
        ( "fast-robust/n3m3",
          fun () -> ignore (Fast_robust.run ~n:3 ~m:3 ~inputs:(inputs 3) ()) );
        ( "robust-backup/n3m3",
          fun () -> ignore (Robust_backup.run ~n:3 ~m:3 ~inputs:(inputs 3) ()) );
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.4) () in
  pr env "%-24s %16s %10s@." "benchmark" "time/run" "samples";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyze =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.fold (fun label result acc -> (label, result) :: acc) analyze []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.iter (fun (label, result) ->
             let samples =
               match Hashtbl.find_opt results label with
               | Some b -> b.Benchmark.stats.Benchmark.samples
               | None -> 0
             in
             match Analyze.OLS.estimates result with
             | Some [ est ] ->
                 let time =
                   if est > 1_000_000.0 then Printf.sprintf "%.2f ms" (est /. 1_000_000.)
                   else if est > 1_000.0 then Printf.sprintf "%.2f us" (est /. 1_000.)
                   else Printf.sprintf "%.0f ns" est
                 in
                 env.bench_rows <- env.bench_rows @ [ (label, est, samples) ];
                 pr env "%-24s %16s %10d@." label time samples
             | _ -> pr env "%-24s %16s %10d@." label "?" samples))
    tests

(* ------------------------------------------------------------------ *)
(* The declared experiment list and the pooled suite driver             *)
(* ------------------------------------------------------------------ *)

(* [wall_clock] experiments measure real time; their output is
   inherently nondeterministic, so the driver keeps them off the pool
   and determinism checks exclude them. *)
type exp = { id : string; wall_clock : bool; run : env -> unit }

let all =
  [
    { id = "t1"; wall_clock = false; run = exp_t1 };
    { id = "d1"; wall_clock = false; run = exp_d1 };
    { id = "d2"; wall_clock = false; run = exp_d2 };
    { id = "d3"; wall_clock = false; run = exp_d3 };
    { id = "d4"; wall_clock = false; run = exp_d4 };
    { id = "d5"; wall_clock = false; run = exp_d5 };
    { id = "d6"; wall_clock = false; run = exp_d6 };
    { id = "d7"; wall_clock = false; run = exp_d7 };
    { id = "a1"; wall_clock = false; run = exp_a1 };
    { id = "l1"; wall_clock = false; run = exp_l1 };
    { id = "f1"; wall_clock = false; run = exp_f1 };
    { id = "f6"; wall_clock = false; run = exp_f6 };
    { id = "m1"; wall_clock = false; run = exp_m1 };
    { id = "o1"; wall_clock = false; run = exp_o1 };
    { id = "c1"; wall_clock = false; run = exp_c1 };
    { id = "w2"; wall_clock = false; run = exp_w2 };
    { id = "r1"; wall_clock = false; run = exp_r1 };
    { id = "v1"; wall_clock = false; run = exp_v1 };
    { id = "bechamel"; wall_clock = true; run = bechamel_benches };
  ]

let ids () = List.map (fun e -> e.id) all

let find id = List.find_opt (fun e -> e.id = id) all

(* Substitute every "<id>" in a --perf-out template; see bench/main.ml. *)
let perf_file template id =
  let marker = "<id>" in
  let buf = Buffer.create (String.length template) in
  let ml = String.length marker in
  let i = ref 0 in
  while !i < String.length template do
    if
      !i + ml <= String.length template
      && String.sub template !i ml = marker
    then begin
      Buffer.add_string buf id;
      i := !i + ml
    end
    else begin
      Buffer.add_char buf template.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* Run one experiment into its own buffer: the task's result is the
   rendered output plus the export blobs, both plain strings.

   With [perf_out], the experiment runs under its own work profiler and
   exports a perf snapshot.  Wall-clock experiments get no profiler —
   Bechamel's iteration counts depend on real time, so their op counts
   are not deterministic and must stay out of the snapshot's
   deterministic plane; their Bechamel estimates land in the timing
   plane instead.  Deterministic experiments capture both planes
   (timing is real wall-clock and varies run to run; only the
   deterministic plane is byte-stable). *)
let run_one ~jobs ~trace_out ~metrics_out ?perf_out e =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let env = { ppf; trace_out; metrics_out; jobs; exports = []; bench_rows = [] } in
  (match perf_out with
  | None -> e.run env
  | Some template ->
      let prof = Prof.create () in
      if e.wall_clock then e.run env
      else Prof.with_profiler prof (fun () -> e.run env);
      List.iter
        (fun (label, est_ns, samples) ->
          let s = est_ns /. 1e9 in
          Prof.add_timing prof ~path:("bechamel;" ^ label) ~calls:samples
            ~total_s:s ~self_s:s)
        env.bench_rows;
      env.exports <-
        env.exports
        @ [
            ( perf_file template e.id,
              Export.perf_snapshot ~wall_clock:e.wall_clock ~id:e.id prof );
          ]);
  Format.pp_print_flush ppf ();
  (Buffer.contents buf, env.exports)

let write_file (file, contents) =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* Run the selected experiments (ids must be valid — see {!find}) and
   print their outputs in request order; file exports are written after
   the runs, also in request order.  With [jobs > 1] and more than one
   pool-eligible experiment, experiments are dispatched across domains
   and each runs its inner pools at jobs = 1 (so nested pools never
   multiply domains); with a single selected experiment, the whole
   [jobs] budget goes to that experiment's inner pools instead.  Either
   way the bytes printed are identical to a sequential run. *)
let run_suite ?(jobs = 1) ?trace_out ?metrics_out ?perf_out requested =
  let selected =
    List.map
      (fun id ->
        match find id with
        | Some e -> e
        | None -> invalid_arg ("run_suite: unknown experiment " ^ id))
      requested
  in
  let indexed = List.mapi (fun i e -> (i, e)) selected in
  let pooled, serial = List.partition (fun (_, e) -> not e.wall_clock) indexed in
  let across = jobs > 1 && List.length pooled > 1 in
  let inner_jobs = if across then 1 else jobs in
  let results = Array.make (List.length selected) ("", []) in
  Rdma_sim.Pool.run_exn
    ~jobs:(if across then jobs else 1)
    (List.map
       (fun (i, e) ->
         Rdma_sim.Task.make ~label:e.id ~seed:i (fun ~seed:_ ->
             (i, run_one ~jobs:inner_jobs ~trace_out ~metrics_out ?perf_out e)))
       pooled)
  |> List.iter (fun (i, r) -> results.(i) <- r);
  (* wall-clock experiments run on the calling domain, after the pool *)
  List.iter
    (fun (i, e) ->
      results.(i) <- run_one ~jobs:inner_jobs ~trace_out ~metrics_out ?perf_out e)
    serial;
  Array.iter
    (fun (output, _) -> print_string output)
    results;
  Array.iter (fun (_, exports) -> List.iter write_file exports) results

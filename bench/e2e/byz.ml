(* Byzantine agreement instances: Fast & Robust (Theorem 4.9) on the
   default strict memory model, the traffic of the d1 and T1
   experiments.  Every delay of the M&M model is fixed and the
   Byzantine-leader path ends on a timeout, so each configuration
   decides at the same virtual times on every seed. *)

open Rdma_consensus

type config = Honest of { n : int; m : int } | Silent_leader | Equivocating_leader

let config_name = function
  | Honest { n; m } -> Printf.sprintf "honest-n%dm%d" n m
  | Silent_leader -> "silent-leader"
  | Equivocating_leader -> "equivocating-leader"

let cycle =
  [ Honest { n = 3; m = 3 }; Honest { n = 5; m = 3 }; Silent_leader; Equivocating_leader ]

type outcome = {
  config : config;
  first : float option;  (** first correct decision *)
  last : float option;  (** every correct process decided *)
  violations : string list;
  events : int;
  heap_peak : int;
  history_max : int;  (** longest history a Trusted message carried *)
}

let run config ~seed =
  let inputs n = Array.init n (Printf.sprintf "v%d") in
  (* a Byzantine leader at p0 with Ω pointing at p1, as in T1 *)
  let omega = [ Fault.Set_leader { pid = 1; at = 0.0 } ] in
  let n, m, byzantine, faults =
    match config with
    | Honest { n; m } -> (n, m, [], [])
    | Silent_leader -> (3, 3, [ (0, Attacks.cq_silent_leader) ], omega)
    | Equivocating_leader ->
        (3, 3, [ (0, Attacks.cq_equivocating_leader ~v1:"black" ~v2:"white") ], omega)
  in
  let report, byz, cluster =
    Fast_robust.run ~seed ~n ~m ~inputs:(inputs n) ~byzantine ~faults ()
  in
  let correct = n - List.length byz in
  let first = Report.first_decision_time report in
  let violations =
    (if Report.agreement_ok ~ignore_pids:byz report then []
     else [ "correct processes disagree" ])
    @ (if Report.decided_count report >= correct then []
       else
         [
           Printf.sprintf "%d of %d correct processes decided"
             (Report.decided_count report) correct;
         ])
    @
    match (config, first) with
    | Honest _, Some t when t <> 2.0 ->
        [ Printf.sprintf "honest instance first decided at %.3f, not 2.0" t ]
    | _ -> []
  in
  {
    config;
    first;
    last = Report.last_decision_time report;
    violations;
    events = report.Report.sim_steps;
    heap_peak = Pct.heap_peak (Rdma_mm.Cluster.obs cluster);
    history_max = Report.named report "trusted.max_history_entries";
  }

(* The benchmark's own tests: the workload library at tiny sizes, the
   output checkers against deliberately broken histories, the reporting
   rules, and BENCHMARK.json against the metric catalogs. *)

open Rdma_e2e

let tiny_spec =
  {
    Arrivals.rate = 0.2;
    count = 40;
    read_share = 0.5;
    keys = Arrivals.Zipf 0.99;
    key_space = 50;
    value_bytes = 32;
  }

let tiny_config =
  Workload.session_config ~replicas:3 ~memories:3 ~lag_every:10.0

let tiny_faults =
  [
    Rdma_consensus.Fault.Crash_memory { mid = 1; at = 20.0 };
    Rdma_consensus.Fault.Recover_memory { mid = 1; at = 60.0 };
    Rdma_consensus.Fault.Crash_process { pid = 0; at = 90.0 };
  ]

let tiny_session engine =
  Kv_session.run engine tiny_config ~seed:3 ~faults:tiny_faults
    (Arrivals.generate tiny_spec ~seed:3 ~stream:0)

(* Everything a session observed in virtual time, rendered exactly. *)
let render (s : Kv_session.t) =
  let buf = Buffer.create 1024 in
  Array.iter
    (fun (r : Kv_session.record) ->
      Printf.bprintf buf "%d %h %h %h %s\n" r.req.Arrivals.id r.req.Arrivals.due
        r.pickup r.done_at
        (match r.result with Some i -> string_of_int i | None -> "-"))
    s.records;
  List.iter
    (fun l -> List.iter (fun (i, c) -> Printf.bprintf buf "%d=%s;" i c) l)
    s.logs;
  List.iter (Printf.bprintf buf " %h") (s.leader_changes @ s.recoveries @ s.repairs);
  Printf.bprintf buf " events=%d lag=%d" s.events s.lag_max;
  Buffer.contents buf

let test_same_seed_same_virtual_metrics () =
  List.iter
    (fun engine ->
      Alcotest.(check string)
        "a session replays byte for byte"
        (render (tiny_session engine))
        (render (tiny_session engine)))
    Rdma_smr.Engines.all;
  let byz () =
    let o = Byz.run Byz.Silent_leader ~seed:5 in
    Printf.sprintf "%s %s %d"
      (Option.fold ~none:"-" ~some:(Printf.sprintf "%h") o.Byz.first)
      (Option.fold ~none:"-" ~some:(Printf.sprintf "%h") o.Byz.last)
      o.Byz.events
  in
  Alcotest.(check string) "an instance replays" (byz ()) (byz ())

let test_sessions_pass_their_checks () =
  List.iter
    (fun engine ->
      let s = tiny_session engine in
      Alcotest.(check (list string)) (s.engine ^ " checks") [] (Kv_session.violations s);
      Alcotest.(check int) (s.engine ^ " timeouts") 0 (Kv_session.timeouts s);
      match Workload.failover s tiny_faults with
      | None -> Alcotest.fail (s.engine ^ ": no failover observed")
      | Some b ->
          (* a negative part would mean the crash, the Ω change, the
             recovery and the first completion were matched out of order *)
          List.iter
            (fun (part, v) ->
              Alcotest.(check bool) (Printf.sprintf "%s %s >= 0" s.engine part) true (v >= 0.0))
            [ ("detect", b.detect); ("recover", b.recover); ("wait", b.wait) ])
    Rdma_smr.Engines.all

let test_byz_instances_pass () =
  List.iter
    (fun config ->
      let o = Byz.run config ~seed:1 in
      Alcotest.(check (list string)) (Byz.config_name config) [] o.Byz.violations)
    Byz.cycle

let test_chaos_verdicts () =
  let find name =
    List.find (fun s -> s.Rdma_chaos.Scenario.name = name) Chaos.scenarios
  in
  let stale = Chaos.schedule (find "velos-stale-lease") ~seed:1 in
  Alcotest.(check bool) "stale lease flagged" true (stale.Chaos.violations <> []);
  Alcotest.(check (list string)) "and that is no failure" [] stale.Chaos.failures;
  let paxos = Chaos.schedule (find "paxos") ~seed:1 in
  Alcotest.(check (list string)) "in-model schedule passes" [] paxos.Chaos.failures;
  (* A reproducer of the open repair bug that Chaos.ordering works
     around, with the budget's own ordering draw.  When this check
     fails, the bug is fixed: delete Chaos.ordering and this check. *)
  let recovery = find "swmr-recovery" in
  let open Rdma_chaos in
  let case = Scenario.generate recovery ~adversary:true ~seed:1501090 () in
  let missed_repair = function Oracle.Repair _ -> true | _ -> false in
  Alcotest.(check bool) "repair bug still open" true
    (List.exists missed_repair (Scenario.run recovery case).Scenario.violations)

let cmd k v = Rdma_smr.Kv.encode_command (Rdma_smr.Kv.Set (k, v))

let test_checkers_flag_broken_histories () =
  let log = [ (1, cmd "a" "1"); (2, cmd "b" "2"); (3, cmd "a" "3") ] in
  let acked = [ (1, cmd "a" "1"); (2, cmd "b" "2"); (3, cmd "a" "3") ] in
  Alcotest.(check (list string)) "intact log" [] (Check.acked_in_log ~log acked);
  let dropped = List.filter (fun (i, _) -> i <> 2) log in
  Alcotest.(check int) "dropped acked write" 1
    (List.length (Check.acked_in_log ~log:dropped acked));
  Alcotest.(check (list string)) "a trailing follower is a prefix" []
    (Check.prefix_consistent [ log; [ (1, cmd "a" "1") ] ]);
  let divergent = [ (1, cmd "a" "1"); (2, cmd "b" "other") ] in
  Alcotest.(check int) "divergent suffix" 1
    (List.length (Check.prefix_consistent [ log; divergent ]));
  let completions = [ (10.0, 3); (12.0, 4) ] in
  Alcotest.(check (list string)) "fresh read" [] (Check.stale_reads ~completions [ (11.0, 3) ]);
  Alcotest.(check (list string)) "a read sent before the ack may miss it" []
    (Check.stale_reads ~completions [ (10.0, 2) ]);
  Alcotest.(check int) "stale read" 1
    (List.length (Check.stale_reads ~completions [ (12.5, 3) ]));
  let reference = [ (1, ("a", "1")); (2, ("b", "2")); (3, ("a", "3")) ] in
  Alcotest.(check (list string)) "final state" []
    (Check.final_state ~reference [ ("a", "3"); ("b", "2") ]);
  Alcotest.(check int) "lost overwrite" 1
    (List.length (Check.final_state ~reference [ ("a", "1"); ("b", "2") ]))

let test_percentile_needs_ten_beyond () =
  let samples n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option (float 0.0))) "p99 of 1000" (Some 990.0)
    (Pct.percentile 0.99 (samples 1000));
  Alcotest.(check (option (float 0.0))) "p99 of 999" None (Pct.percentile 0.99 (samples 999));
  Alcotest.(check (option (float 0.0))) "p50 of 20" (Some 10.0) (Pct.percentile 0.5 (samples 20));
  Alcotest.(check (option (float 0.0))) "p50 of 19" None (Pct.percentile 0.5 (samples 19))

let test_max_rate_stops_at_first_failure () =
  let passes r = r <> 0.3 in
  Alcotest.(check (option (float 0.0))) "stops before a later pass" (Some 0.2)
    (Workload.max_rate ~rates:[ 0.1; 0.2; 0.3; 0.4 ] passes);
  Alcotest.(check (option (float 0.0))) "first rate fails" None
    (Workload.max_rate ~rates:[ 0.3; 0.4 ] passes)

(* BENCHMARK.json lists exactly the metrics the workloads report. *)
let test_benchmark_json_matches () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let json =
    match Rdma_obs.Json.parse text with
    | Ok j -> j
    | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)
  in
  let field key j =
    match Rdma_obs.Json.member key j with
    | Some (Rdma_obs.Json.String s) -> s
    | _ -> Alcotest.fail ("missing " ^ key)
  in
  let listed key =
    Option.bind (Rdma_obs.Json.member key json) Rdma_obs.Json.to_list
    |> Option.value ~default:[]
    |> List.map (fun m -> (field "name" m, field "unit" m, field "better" m))
  in
  let catalog l =
    List.map
      (fun (n, u, d) -> (n, u, match d with Workload.Lower -> "lower" | Workload.Higher -> "higher"))
      l
  in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (catalog Workload.end_to_end) (listed "end_to_end");
  Alcotest.check triple "per_layer" (catalog Workload.per_layer) (listed "per_layer");
  Alcotest.(check (list string)) "workloads"
    (List.map (fun w -> w.Workload.name) Workload.all)
    (List.map (fun w -> field "name" w) (Option.bind (Rdma_obs.Json.member "workloads" json) Rdma_obs.Json.to_list |> Option.value ~default:[]))

let () =
  Alcotest.run "e2e"
    [
      ( "workloads",
        [
          Alcotest.test_case "same seed, same virtual metrics" `Quick
            test_same_seed_same_virtual_metrics;
          Alcotest.test_case "tiny sessions pass their checks" `Quick
            test_sessions_pass_their_checks;
          Alcotest.test_case "byz instances pass their checks" `Quick
            test_byz_instances_pass;
          Alcotest.test_case "chaos verdicts" `Quick test_chaos_verdicts;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "checkers flag broken histories" `Quick
            test_checkers_flag_broken_histories;
          Alcotest.test_case "percentile needs ten samples beyond" `Quick
            test_percentile_needs_ten_beyond;
          Alcotest.test_case "max_rate stops at the first failing rate" `Quick
            test_max_rate_stops_at_first_failure;
          Alcotest.test_case "BENCHMARK.json matches the catalogs" `Quick
            test_benchmark_json_matches;
        ] );
    ]

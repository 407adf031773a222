(* Alcotest pads each suite label to the longest registered suite name
   and cuts long test names to fit the terminal, so that width decides
   how every long test name prints. This empty group holds the label
   column at 21 characters, so test names print the same whichever
   suites are present. *)
let label_column = (String.make 21 '-', [])

let () =
  Alcotest.run "rdma-agreement"
    [
      ("heap", Test_heap.suite);
      ("pool", Test_pool.suite);
      ("obs", Test_obs.suite);
      ("prof", Test_prof.suite);
      ("engine", Test_engine.suite);
      ("crypto", Test_crypto.suite);
      ("memory", Test_memory.suite);
      ("ordering", Test_ordering.suite);
      ("verbs", Test_verbs.suite);
      ("swmr", Test_swmr.suite);
      ("network", Test_network.suite);
      ("failure-detector", Test_fd.suite);
      ("codec", Test_codec.suite);
      ("report", Test_report.suite);
      ("paxos", Test_paxos.suite);
      ("protected-paxos", Test_protected_paxos.suite);
      ("disk-paxos", Test_disk_paxos.suite);
      ("aligned-paxos", Test_aligned_paxos.suite);
      ("fast-paxos", Test_fast_paxos.suite);
      ("neb", Test_neb.suite);
      ("trusted", Test_trusted.suite);
      ("robust-backup", Test_robust_backup.suite);
      ("preferential-paxos", Test_preferential.suite);
      ("cheap-quorum", Test_cheap_quorum.suite);
      ("fast-robust", Test_fast_robust.suite);
      ("lower-bound", Test_probe.suite);
      ("attacks", Test_attacks.suite);
      ("smr", Test_smr.suite);
      ("engines", Test_engines.suite);
      ("recovery", Test_recovery.suite);
      ("lock-service", Test_lock_service.suite);
      ("bft-log", Test_bft_log.suite);
      ("properties", Test_properties.suite);
      ("chaos", Test_chaos.suite);
      ("stress", Test_stress.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("scale", Test_scale.suite);
      label_column;
    ]

(* The engine-agnostic SMR layer: one replication/failover/read suite
   instantiated for EVERY registered consensus engine (pmp and velos must
   pass it unmodified), the engine registry, and the velos lease-safety
   properties — a leased read costs zero memory operations, expiry and
   failover fall back to quorum confirmation, and the deliberately
   stale-lease fixture is caught by the chaos oracle. *)

open Rdma_sim
open Rdma_mm
open Rdma_obs
open Rdma_smr
module Fault = Rdma_consensus.Fault

let base_cfg =
  {
    Consensus_engine.default_config with
    replicas = 3;
    max_entries = 32;
    serve_until = 500.0;
    anti_entropy_every = 10.0;
    lease_duration = 25.0;
  }

let build (module E : Consensus_engine.S) ?(cfg = base_cfg) ?(seed = 1)
    ~clients ~m () =
  let n = cfg.Consensus_engine.replicas + clients in
  let cluster : string Cluster.t =
    Cluster.create ~seed ~legal_change:(E.legal_change cfg) ~n ~m ()
  in
  E.setup_regions cluster cfg;
  cluster

let spawn_replicas engine ?(cfg = base_cfg) cluster =
  Array.init cfg.Consensus_engine.replicas (fun pid ->
      Consensus_engine.spawn engine cluster ~cfg ~pid ())

(* --- the shared suite, parametric in the engine --------------------- *)

let replication_and_kv ((module E : Consensus_engine.S) as engine) faults =
  let input = Fmt.str " [%a]" Fmt.(list ~sep:(any ", ") Fault.pp) faults in
  let cluster = build (module E) ~clients:1 ~m:3 () in
  let replicas = spawn_replicas engine cluster in
  let results = ref [] in
  let commands =
    List.map Kv.encode_command
      [ Kv.Set ("a", "1"); Kv.Set ("b", "2"); Kv.Delete "a"; Kv.Set ("c", "3") ]
  in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      List.iteri
        (fun seq cmd ->
          let index = E.submit ctx ~cfg:base_cfg ~seq ~cmd ~timeout:200.0 in
          results := (cmd, index) :: !results)
        commands);
  Fault.apply cluster faults;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (option int)))
    ("commands committed in order" ^ input)
    [ Some 1; Some 2; Some 3; Some 4 ]
    (List.rev_map snd !results);
  let logs = Array.map Consensus_engine.applied replicas in
  Alcotest.(check bool)
    ("replicas agree" ^ input) true
    (logs.(0) = logs.(1) && logs.(1) = logs.(2));
  Alcotest.(check bool) ("leader's term established" ^ input) true
    (Consensus_engine.current_term replicas.(0) > 0);
  let kv = Kv.of_replica replicas.(1) in
  Alcotest.(check (option string)) ("a deleted" ^ input) None (Kv.get kv "a");
  Alcotest.(check (option string)) ("b present" ^ input) (Some "2") (Kv.get kv "b");
  Alcotest.(check (option string)) ("c present" ^ input) (Some "3") (Kv.get kv "c")

(* Fault-free, under leadership flapping across all three replicas, and
   under per-message latency in [0.5, 3.0), where messages overtake
   each other. *)
let test_replication_and_kv engine () =
  List.iter (replication_and_kv engine)
    Fault.
      [
        [];
        [
          Set_leader { pid = 1; at = 1.0 };
          Set_leader { pid = 2; at = 6.0 };
          Set_leader { pid = 0; at = 14.0 };
        ];
        [ Random_latency { min = 0.5; max = 3.0 } ];
      ]

let test_commit_stream ((module E : Consensus_engine.S) as engine) () =
  let cluster = build (module E) ~clients:1 ~m:3 () in
  let replicas = spawn_replicas engine cluster in
  (* [Kv.attach] consumes the engine's on_commit stream incrementally
     instead of re-reading the whole log. *)
  let live = Kv.attach replicas.(2) in
  let seen = ref [] in
  Consensus_engine.on_commit replicas.(2) (fun ~index ~cmd:_ ->
      seen := index :: !seen);
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      List.iteri
        (fun seq cmd ->
          ignore (E.submit ctx ~cfg:base_cfg ~seq ~cmd ~timeout:200.0))
        (List.map Kv.encode_command [ Kv.Set ("x", "1"); Kv.Set ("x", "2") ]));
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list int)) "stream delivered in order" [ 1; 2 ]
    (List.rev !seen);
  Alcotest.(check (option string)) "attached KV is live" (Some "2")
    (Kv.get live "x")

let test_failover_preserves_log ((module E : Consensus_engine.S) as engine) ()
    =
  let cluster = build (module E) ~clients:1 ~m:3 () in
  let replicas = spawn_replicas engine cluster in
  let results = ref [] in
  let commands =
    List.init 6 (fun i ->
        Kv.encode_command (Kv.Set (Printf.sprintf "k%d" i, string_of_int i)))
  in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      List.iteri
        (fun seq cmd ->
          if seq < 3 then
            results :=
              (cmd, E.submit ctx ~cfg:base_cfg ~seq ~cmd ~timeout:150.0)
              :: !results)
        commands;
      Cluster.crash_process cluster 0;
      List.iteri
        (fun seq cmd ->
          if seq >= 3 then
            results :=
              (cmd, E.submit ctx ~cfg:base_cfg ~seq ~cmd ~timeout:250.0)
              :: !results)
        commands);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check int) "all six committed" 6
    (List.length (List.filter (fun (_, i) -> i <> None) !results));
  let l1 = Consensus_engine.applied replicas.(1) in
  let l2 = Consensus_engine.applied replicas.(2) in
  Alcotest.(check bool) "survivors agree" true (l1 = l2);
  Alcotest.(check int) "no committed entry lost" 6 (List.length l1);
  let kv = Kv.of_replica replicas.(1) in
  Alcotest.(check (option string)) "early write survived failover" (Some "0")
    (Kv.get kv "k0");
  Alcotest.(check (option string)) "late write present" (Some "5")
    (Kv.get kv "k5")

(* [crashes] lists [(mid, at)]: a minority of the [m] memories. *)
let memory_crash_tolerated ((module E : Consensus_engine.S) as engine) (m, crashes)
    =
  let cluster = build (module E) ~clients:1 ~m () in
  let replicas = spawn_replicas engine cluster in
  let results = ref [] in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      List.iteri
        (fun seq cmd ->
          results := E.submit ctx ~cfg:base_cfg ~seq ~cmd ~timeout:200.0 :: !results)
        [ "c0"; "c1"; "c2" ]);
  Fault.apply cluster (List.map (fun (mid, at) -> Fault.Crash_memory { mid; at }) crashes);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  let live = Printf.sprintf " with %d/%d memories" (m - List.length crashes) m in
  Alcotest.(check bool) ("all committed" ^ live) true
    (List.for_all (fun i -> i <> None) !results);
  Alcotest.(check int) ("replica applied them" ^ live) 3
    (Consensus_engine.applied_count replicas.(2))

let test_memory_crash_tolerated engine () =
  List.iter (memory_crash_tolerated engine)
    [ (3, [ (1, 0.0) ]); (5, [ (0, 0.0); (3, 1.0) ]) ]

let test_linearizable_read ((module E : Consensus_engine.S) as engine) () =
  let cluster = build (module E) ~clients:1 ~m:3 () in
  let replicas = spawn_replicas engine cluster in
  let observed = ref (-1) in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      List.iteri
        (fun seq cmd -> ignore (E.submit ctx ~cfg:base_cfg ~seq ~cmd ~timeout:200.0))
        [ "a"; "b" ];
      match E.linearizable_read ctx ~cfg:base_cfg ~seq:100 ~timeout:200.0 with
      | Some up_to -> observed := up_to
      | None -> ());
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check int) "read covers every acked append" 2 !observed;
  ignore replicas

let test_lock_service ((module E : Consensus_engine.S) as engine) () =
  let cluster = build (module E) ~clients:1 ~m:3 () in
  let replicas = spawn_replicas engine cluster in
  let commands =
    [
      Lock_service.encode_command (Lock_service.Acquire { lock = "l"; owner = "p3" });
      Lock_service.encode_command (Lock_service.Acquire { lock = "l"; owner = "p4" });
      Lock_service.encode_command (Lock_service.Release { lock = "l"; owner = "p3" });
    ]
  in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      List.iteri
        (fun seq cmd -> ignore (E.submit ctx ~cfg:base_cfg ~seq ~cmd ~timeout:200.0))
        commands);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  let locks = Lock_service.of_replica replicas.(0) in
  (* p3 released; p4 was queued and now holds the lock *)
  Alcotest.(check (option string)) "queued waiter promoted" (Some "p4")
    (Option.map fst (Lock_service.holder locks "l"))

(* Memory 1 crashes at [crash_at] and rejoins EMPTY at [rejoin_at]: the
   leader's rejoin server must transfer it the whole region (checkpoint,
   header registers, log) so no register stays stale, while every
   command still commits and the replicas' logs agree. *)
let rejoin_repair ~checkpoint_every ((module E : Consensus_engine.S) as engine)
    (crash_at, rejoin_at) =
  let outage = Printf.sprintf " (outage %.0f-%.0f)" crash_at rejoin_at in
  let cfg = { base_cfg with Consensus_engine.checkpoint_every } in
  let cluster = build (module E) ~cfg ~clients:1 ~m:3 () in
  let replicas = spawn_replicas engine ~cfg cluster in
  let committed = ref 0 in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      for seq = 0 to 9 do
        match
          E.submit ctx ~cfg ~seq ~cmd:(Printf.sprintf "cmd%d" seq) ~timeout:200.0
        with
        | Some _ -> incr committed
        | None -> ()
      done);
  Fault.apply cluster
    [
      Fault.Crash_memory { mid = 1; at = crash_at };
      Fault.Recover_memory { mid = 1; at = rejoin_at };
    ];
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check int) ("all commands committed across the outage" ^ outage) 10
    !committed;
  let logs = Array.map Consensus_engine.applied replicas in
  Alcotest.(check bool) ("replicas agree" ^ outage) true
    (logs.(0) = logs.(1) && logs.(1) = logs.(2));
  Alcotest.(check int) ("log fully applied" ^ outage) 10 (List.length logs.(0));
  Alcotest.(check bool) ("leader transferred state to the rejoiner" ^ outage) true
    (Obs.counter (Cluster.obs cluster) (E.region ^ ".repairs") >= 1);
  Alcotest.(check (list string)) ("rejoined memory fully re-replicated" ^ outage)
    []
    (Rdma_mem.Memory.stale_registers (Cluster.memory cluster 1) ~region:E.region)

(* Mid-workload, and after the workload has finished: the idle leader
   must still serve the rejoin. *)
let test_rejoin_repair ~checkpoint_every engine () =
  List.iter (rejoin_repair ~checkpoint_every engine) [ (20.0, 40.0); (3.0, 60.0) ]

(* --- registry ------------------------------------------------------- *)

let test_registry () =
  Alcotest.(check (list string)) "both engines registered" [ "pmp"; "velos" ]
    Engines.names;
  (match Engines.find "velos" with
  | Some (module E : Consensus_engine.S) ->
      Alcotest.(check string) "find resolves" "velos" E.name
  | None -> Alcotest.fail "velos not found");
  Alcotest.check_raises "unknown engine rejected"
    (Invalid_argument "unknown engine \"nope\" (have: pmp, velos)") (fun () ->
      ignore (Engines.get "nope"))

(* --- velos lease safety --------------------------------------------- *)

let velos : Consensus_engine.engine = (module Velos)

let run_profiled cluster =
  let prof = Prof.create ~clock:(fun () -> 0.0) () in
  Prof.with_profiler prof (fun () ->
      Cluster.run cluster;
      Cluster.check_errors cluster);
  prof

(* Sum counter [name] over every profiler scope whose path mentions
   [scope] (reads are served inside replica fibers, so the scope nests
   under the caller's frames). *)
let counter_in prof ~scope ~name =
  List.fold_left
    (fun acc (path, counters) ->
      let contains =
        let lp = String.length path and ls = String.length scope in
        let rec probe i =
          i + ls <= lp && (String.sub path i ls = scope || probe (i + 1))
        in
        probe 0
      in
      if contains then acc + (try List.assoc name counters with Not_found -> 0)
      else acc)
    0 (Prof.by_scope prof)

let leased_scope_seen prof =
  List.exists
    (fun (path, _) ->
      let lp = String.length path in
      let scope = "velos.read.leased" in
      let ls = String.length scope in
      let rec probe i = i + ls <= lp && (String.sub path i ls = scope || probe (i + 1)) in
      probe 0)
    (Prof.by_scope prof)

let test_leased_read_zero_mem_ops () =
  let module E = Velos in
  (* Long enough that the reign-start lease covers every read below
     (the serve loop paces one read per 4-delay request timeout). *)
  let cfg = { base_cfg with Consensus_engine.lease_duration = 60.0 } in
  let cluster = build (module E) ~cfg ~clients:1 ~m:3 () in
  let _replicas = spawn_replicas velos ~cfg cluster in
  let reads = ref [] in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      List.iteri
        (fun seq cmd -> ignore (E.submit ctx ~cfg ~seq ~cmd ~timeout:200.0))
        [ "a"; "b"; "c" ];
      (* The reign-start lease refresh covers these: no quorum rounds. *)
      for seq = 100 to 103 do
        reads := E.linearizable_read ctx ~cfg ~seq ~timeout:200.0 :: !reads
      done);
  let prof = run_profiled cluster in
  Alcotest.(check (list (option int))) "reads all answered and current"
    [ Some 3; Some 3; Some 3; Some 3 ]
    !reads;
  Alcotest.(check bool) "leased-read scope exercised" true
    (leased_scope_seen prof);
  Alcotest.(check int) "a leased read issues ZERO memory operations" 0
    (counter_in prof ~scope:"velos.read.leased" ~name:"mem.ops.issued");
  Alcotest.(check bool) "leased reads were served" true
    (counter_in prof ~scope:"velos.read.leased" ~name:"smr.reads.leased" >= 4);
  Alcotest.(check int) "stat plane agrees: no read paid a quorum round" 0
    (Obs.counter (Cluster.obs cluster) "velos.reads.quorum")

let test_expired_lease_pays_quorum () =
  let module E = Velos in
  let cfg = { base_cfg with Consensus_engine.lease_duration = 5.0 } in
  let cluster = build (module E) ~cfg ~clients:1 ~m:3 () in
  let _replicas = spawn_replicas velos ~cfg cluster in
  let read = ref None in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      ignore (E.submit ctx ~cfg ~seq:0 ~cmd:"a" ~timeout:200.0);
      (* outlive the 5-delay lease, then read: the replica must fall
         back to a quorum round before answering *)
      Engine.sleep 40.0;
      read := E.linearizable_read ctx ~cfg ~seq:100 ~timeout:200.0);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (option int)) "read still linearizes" (Some 1) !read;
  Alcotest.(check bool) "expired lease paid a quorum round" true
    (Obs.counter (Cluster.obs cluster) "velos.reads.quorum" >= 1)

let test_zero_duration_disables_leases () =
  let module E = Velos in
  let cfg = { base_cfg with Consensus_engine.lease_duration = 0.0 } in
  let cluster = build (module E) ~cfg ~clients:1 ~m:3 () in
  let _replicas = spawn_replicas velos ~cfg cluster in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      ignore (E.submit ctx ~cfg ~seq:0 ~cmd:"a" ~timeout:200.0);
      for seq = 100 to 101 do
        ignore (E.linearizable_read ctx ~cfg ~seq ~timeout:200.0)
      done);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check int) "no leased reads" 0
    (Obs.counter (Cluster.obs cluster) "velos.reads.leased");
  Alcotest.(check bool) "every read paid quorum" true
    (Obs.counter (Cluster.obs cluster) "velos.reads.quorum" >= 2)

let test_read_after_failover () =
  let module E = Velos in
  (* Long lease so it is still valid when the successor's recovery
     finishes (~27 delays in: detection + permission swap + gather). *)
  let cfg = { base_cfg with Consensus_engine.lease_duration = 60.0 } in
  let cluster = build (module E) ~cfg ~clients:1 ~m:3 () in
  let _replicas = spawn_replicas velos ~cfg cluster in
  let read = ref None in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      List.iteri
        (fun seq cmd -> ignore (E.submit ctx ~cfg ~seq ~cmd ~timeout:150.0))
        [ "a"; "b" ];
      (* Depose the leaseholder: the successor must wait out the lease
         on the shared virtual clock before serving reads. *)
      Cluster.crash_process cluster 0;
      read := E.linearizable_read ctx ~cfg ~seq:100 ~timeout:250.0);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (option int)) "post-failover read sees every acked append"
    (Some 2) !read;
  Alcotest.(check bool) "successor waited out the predecessor's lease" true
    (Obs.counter (Cluster.obs cluster) "velos.lease.waits" >= 1)

let test_stale_lease_fixture_caught () =
  let scenario =
    match Rdma_chaos.Scenario.find "velos-stale-lease" with
    | Some s -> s
    | None -> Alcotest.fail "velos-stale-lease scenario not registered"
  in
  let options = { Rdma_chaos.Explore.default_options with runs = 2; seed = 11 } in
  let batch = Rdma_chaos.Explore.explore ~options scenario in
  Alcotest.(check int) "every schedule catches the stale lease" 2
    (List.length batch.Rdma_chaos.Explore.failures)

(* A follower whose first poll comes after ten commits and five
   checkpoints finds its whole poll window truncated: only the
   checkpoint branch of the poll can bring it level with the leader. *)
let test_velos_truncated_poll_window () =
  let module E = Velos in
  let cfg =
    { base_cfg with Consensus_engine.checkpoint_every = 2; anti_entropy_every = 200.0 }
  in
  let cluster = build (module E) ~cfg ~clients:1 ~m:3 () in
  let replicas = spawn_replicas velos ~cfg cluster in
  let indices = ref [] and last_ack = ref infinity in
  Cluster.spawn cluster ~pid:3 (fun ctx ->
      for seq = 0 to 9 do
        let cmd = Printf.sprintf "cmd%d" seq in
        indices := E.submit ctx ~cfg ~seq ~cmd ~timeout:150.0 :: !indices
      done;
      last_ack := Engine.now ctx.Cluster.ctx_engine);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (option int))) "ten commits"
    (List.init 10 (fun i -> Some (i + 1)))
    (List.rev !indices);
  Alcotest.(check bool) "all acked long before the first poll" true (!last_ack < 100.0);
  Alcotest.(check int) "five checkpoints, each truncating the log below it" 5
    (Obs.counter (Cluster.obs cluster) "velos.checkpoints");
  let leader = Consensus_engine.applied replicas.(0) in
  Alcotest.(check int) "the leader applied all ten" 10 (List.length leader);
  Array.iteri
    (fun pid r ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "p%d's applied log = the leader's" pid)
        leader (Consensus_engine.applied r))
    replicas

(* --- client protocol and checkpoint decoding ------------------------- *)

module R = Replicated_log
module Codec = Rdma_consensus.Codec

(* The split-first decoder the client protocol shipped with, kept as the
   reference for the tag-dispatching one. *)
let reference_decode_msg s =
  match Codec.split s with
  | Some [ "req"; c; q; cmd ] -> (
      match (Codec.int_of_field c, Codec.int_of_field q) with
      | Some client, Some seq -> Some (R.Request { client; seq; cmd })
      | _ -> None)
  | Some [ "ack"; c; q; i ] -> (
      match (Codec.int_of_field c, Codec.int_of_field q, Codec.int_of_field i) with
      | Some client, Some seq, Some index -> Some (R.Ack { client; seq; index })
      | _ -> None)
  | Some [ "rdq"; c; q ] -> (
      match (Codec.int_of_field c, Codec.int_of_field q) with
      | Some client, Some seq -> Some (R.Read_request { client; seq })
      | _ -> None)
  | Some [ "rdr"; c; q; u ] -> (
      match (Codec.int_of_field c, Codec.int_of_field q, Codec.int_of_field u) with
      | Some client, Some seq, Some up_to -> Some (R.Read_reply { client; seq; up_to })
      | _ -> None)
  | _ -> None

(* Fields crowded with digits and ':', so commands and stored entries
   look like frame headers. *)
let wire_field =
  QCheck2.Gen.(
    string_size
      ~gen:(frequency [ (3, oneofl [ '0'; '1'; '2'; '9'; ':'; '|' ]); (1, char) ])
      (0 -- 12))

(* Canonical integers, and spellings that only a lenient decoder takes. *)
let int_field =
  QCheck2.Gen.(
    frequency
      [
        (4, map string_of_int (int_range (-3) 40));
        (1, oneofl [ "007"; "+5"; "-0"; "0x1f"; "1_0" ]);
      ])

(* Raw strings, and encodings led by a known or foreign tag with well-
   or ill-formed fields, whole, cut short or with a trailing byte: the
   shapes both decoders branch on. *)
let wire_string =
  QCheck2.Gen.(
    let encoded =
      map
        (fun (tag, fields) -> Codec.join (tag :: fields))
        (pair
           (oneofl [ "req"; "ack"; "rdq"; "rdr"; "com"; "snp"; "cup"; ""; "re"; "req:" ])
           (list_size (0 -- 5) (oneof [ int_field; wire_field ])))
    in
    frequency
      [
        (1, string_size ~gen:(oneof [ oneofl [ '3'; ':'; 'r'; 'e'; 'q' ]; char ]) (0 -- 30));
        (3, encoded);
        ( 1,
          map2 (fun s cut -> String.sub s 0 (cut mod (String.length s + 1))) encoded nat );
        (1, map2 (fun s c -> s ^ String.make 1 c) encoded char);
      ])

let msg_gen =
  QCheck2.Gen.(
    let i = int_range 0 1000 in
    oneof
      [
        map3 (fun client seq cmd -> R.Request { client; seq; cmd }) i i wire_field;
        map3 (fun client seq index -> R.Ack { client; seq; index }) i i i;
        map2 (fun client seq -> R.Read_request { client; seq }) i i;
        map3 (fun client seq up_to -> R.Read_reply { client; seq; up_to }) i i i;
      ])

(* On an encoding, the decoder must also give back the message. *)
let qcheck_decode_msg =
  QCheck2.Test.make ~name:"client protocol: tag dispatch = split-first decoder"
    ~count:2000
    QCheck2.Gen.(
      oneof
        [
          map (fun s -> (s, None)) wire_string;
          map (fun m -> (R.encode_msg m, Some m)) msg_gen;
        ])
    (fun (s, encoded) ->
      let decoded = R.decode_msg s in
      decoded = reference_decode_msg s
      && match encoded with Some m -> decoded = Some m | None -> true)

let qcheck_ckpt_index =
  QCheck2.Test.make ~name:"checkpoint: ckpt_index = decode_ckpt's index" ~count:2000
    QCheck2.Gen.(
      oneof
        [
          wire_string;
          map2
            (fun up_to entries -> R.encode_ckpt ~up_to ~entries)
            (int_range (-3) 40) (list_size (0 -- 8) wire_field);
        ])
    (* They agree wherever the checkpoint is well formed; on a malformed
       tail the peek may still read an index, and velos's poll then
       decodes [None] and applies nothing. *)
    (fun s ->
      R.ckpt_index s = Option.map fst (R.decode_ckpt s) || Codec.split s = None)

(* --- suite ---------------------------------------------------------- *)

let per_engine =
  List.concat_map
    (fun ((module E : Consensus_engine.S) as engine) ->
      let t name f =
        Alcotest.test_case (Printf.sprintf "%s: %s" E.name name) `Quick
          (f engine)
      in
      [
        t "replication + kv" test_replication_and_kv;
        t "commit stream + live kv" test_commit_stream;
        t "leader failover preserves log" test_failover_preserves_log;
        t "memory crash tolerated" test_memory_crash_tolerated;
        t "linearizable read" test_linearizable_read;
        t "lock service" test_lock_service;
      ])
    Engines.all

let per_engine_repair =
  List.concat_map
    (fun ((module E : Consensus_engine.S) as engine) ->
      List.map
        (fun checkpoint_every ->
          Alcotest.test_case
            (Printf.sprintf "%s: rejoin repair ckpt=%d" E.name checkpoint_every)
            `Quick
            (test_rejoin_repair ~checkpoint_every engine))
        [ 0; 2 ])
    Engines.all

let suite =
  per_engine
  @ [
      Alcotest.test_case "engine registry" `Quick test_registry;
      Alcotest.test_case "velos: leased read = 0 mem ops" `Quick
        test_leased_read_zero_mem_ops;
      Alcotest.test_case "velos: expired lease pays quorum" `Quick
        test_expired_lease_pays_quorum;
      Alcotest.test_case "velos: lease_duration=0 disables leases" `Quick
        test_zero_duration_disables_leases;
      Alcotest.test_case "velos: read after failover" `Quick
        test_read_after_failover;
      Alcotest.test_case "velos: stale-lease fixture caught" `Quick
        test_stale_lease_fixture_caught;
    ]
  @ per_engine_repair
  @ [
      Alcotest.test_case "velos: followers adopt a truncated checkpoint" `Quick
        test_velos_truncated_poll_window;
      QCheck_alcotest.to_alcotest qcheck_decode_msg;
      QCheck_alcotest.to_alcotest qcheck_ckpt_index;
    ]

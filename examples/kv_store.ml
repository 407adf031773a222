(* A replicated key-value store on the protected-memory log (Mu-style
   SMR, the system family this paper's techniques spawned).

   Three replicas, three memories, two clients.  Steady-state appends
   commit with a single replicated write (two delays).  Mid-workload the
   leader replica crashes; the new leader takes the write permissions,
   recovers the committed prefix from a majority of memories, and the
   store continues without losing an acknowledged write.

     dune exec examples/kv_store.exe *)

open Rdma_sim
open Rdma_mm
open Rdma_consensus
open Rdma_smr

let cfg =
  { Consensus_engine.default_config with replicas = 3; max_entries = 32; serve_until = 600.0 }

let () =
  let clients = 2 in
  let n = cfg.Consensus_engine.replicas + clients in
  let m = 3 in
  Fmt.pr "Replicated KV store: %d replicas, %d memories, %d clients@."
    cfg.Consensus_engine.replicas m clients;

  (* client 3: writes user records, then crashes the leader, then writes
     more *)
  let client3 cluster (ctx : string Cluster.ctx) =
    let put seq k v =
      let cmd = Kv.encode_command (Kv.Set (k, v)) in
      match Smr_log.submit ctx ~cfg ~seq ~cmd ~timeout:200.0 with
      | Some index ->
          Fmt.pr "  [%.1f] client3 put %s=%s -> committed at index %d@."
            (Engine.now ctx.Cluster.ctx_engine) k v index
      | None -> Fmt.pr "  client3 put %s timed out@." k
    in
    put 0 "alice" "online";
    put 1 "bob" "offline";
    Fmt.pr "  [%.1f] *** crashing the leader replica p0 ***@."
      (Engine.now ctx.Cluster.ctx_engine);
    Cluster.crash_process cluster 0;
    put 2 "carol" "online";
    put 3 "alice" "away"
  in

  (* client 4: interleaved counters *)
  let client4 (ctx : string Cluster.ctx) =
    Engine.sleep 1.0;
    List.iteri
      (fun seq i ->
        let cmd = Kv.encode_command (Kv.Set (Printf.sprintf "counter%d" i, "1")) in
        match Smr_log.submit ctx ~cfg ~seq ~cmd ~timeout:250.0 with
        | Some index ->
            Fmt.pr "  [%.1f] client4 counter%d -> index %d@."
              (Engine.now ctx.Cluster.ctx_engine) i index
        | None -> Fmt.pr "  client4 counter%d timed out@." i)
      [ 0; 1 ]
  in

  let spawn cluster pid =
    if pid < cfg.Consensus_engine.replicas then begin
      let r = Smr_log.spawn_replica cluster ~cfg ~pid () in
      fun () -> Some r
    end
    else begin
      Cluster.spawn cluster ~pid (if pid = 3 then client3 cluster else client4);
      fun () -> None
    end
  in
  let _, results =
    Instance.run ~legal_change:(Smr_log.legal_change cfg)
      ~setup:(fun cluster -> Smr_log.setup_regions cluster cfg)
      ~seed:1 ~n ~m ~spawn ()
  in
  let replicas = Array.to_list results |> List.filter_map Option.join |> Array.of_list in

  Fmt.pr "@.Surviving replica logs:@.";
  for pid = 1 to cfg.Consensus_engine.replicas - 1 do
    let entries = Smr_log.applied_entries replicas.(pid) in
    Fmt.pr "  replica p%d applied %d entries@." pid (List.length entries)
  done;
  let log1 = Smr_log.applied_entries replicas.(1) in
  let log2 = Smr_log.applied_entries replicas.(2) in
  Fmt.pr "  survivor logs identical: %b@." (log1 = log2);
  let kv = Kv.of_log log1 in
  Fmt.pr "@.Materialized store:@.";
  List.iter (fun (k, v) -> Fmt.pr "  %-10s = %s@." k v) (Kv.bindings kv)

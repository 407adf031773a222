(* Weak memory-ordering model tests: completion-lag (the issuer's
   completion can outrun the remote apply), reordered-qp (in-flight
   same-QP ops apply out of issue order), fence semantics, the
   control-plane drain, and the amnesia defence for lagged writes across
   a restart.

   The per-op lag/reorder draws come from the memory's dedicated rng
   stream keyed on (seed, mid), so every assertion below is pinned to a
   calibrated seed and replays bit-for-bit: seed 1 at mid 0 draws a
   first lag of ~39.55 under max_lag 50 (comfortably past every probe
   instant), and under window 20 draws d_write ~15.82 then d_read ~9.56
   (the read overtakes the write). *)

open Rdma_sim
open Rdma_mem

let make_memory ?legal_change ?(ordering = Ordering.Strict) ?(seed = 1) () =
  let engine = Engine.create () in
  let mem = Memory.create ?legal_change ~seed ~engine ~mid:0 () in
  Memory.set_ordering mem ordering;
  (engine, mem)

let in_fiber engine f =
  ignore (Engine.spawn engine "test" f);
  Engine.run engine;
  match Engine.errors engine with
  | [] -> ()
  | (name, e) :: _ ->
      Alcotest.failf "fiber %s raised %s" name (Printexc.to_string e)

let op_result =
  Alcotest.testable
    (Fmt.of_to_string (function Memory.Ack -> "ack" | Memory.Nak -> "nak"))
    ( = )

let read_result =
  Alcotest.testable
    (Fmt.of_to_string (function
      | Memory.Read None -> "read ⊥"
      | Memory.Read (Some v) -> "read " ^ v
      | Memory.Read_nak -> "nak"))
    ( = )

(* --- mode parsing ---------------------------------------------------- *)

let test_mode_strings () =
  let round m =
    match Ordering.of_string (Ordering.to_string m) with
    | Ok m' -> Alcotest.(check bool) (Ordering.to_string m) true (Ordering.equal m m')
    | Error e -> Alcotest.failf "%s does not round trip: %s" (Ordering.to_string m) e
  in
  round Ordering.Strict;
  round (Ordering.Completion_lag { max_lag = 6.0 });
  round (Ordering.Completion_lag { max_lag = 0.25 });
  round (Ordering.Reorder_qp { window = 4.0 });
  (* bare names pick up the default parameters *)
  (match Ordering.of_string "completion-lag" with
  | Ok (Ordering.Completion_lag { max_lag }) ->
      Alcotest.(check (float 0.0)) "default lag" Ordering.default_lag max_lag
  | _ -> Alcotest.fail "bare completion-lag rejected");
  (match Ordering.of_string "reordered-within-qp" with
  | Ok (Ordering.Reorder_qp { window }) ->
      Alcotest.(check (float 0.0)) "alias + default window" Ordering.default_window
        window
  | _ -> Alcotest.fail "reordered-within-qp alias rejected");
  (match Ordering.of_string "strict:3" with
  | Ok _ -> Alcotest.fail "strict must not take a parameter"
  | Error _ -> ());
  (match Ordering.of_string "completion-lag:-1" with
  | Ok _ -> Alcotest.fail "negative lag accepted"
  | Error _ -> ());
  (match Ordering.of_string "completion-lag:inf" with
  | Ok _ -> Alcotest.fail "infinite lag accepted"
  | Error _ -> ());
  (match Ordering.of_string "reordered-qp:1e400" with
  | Ok _ -> Alcotest.fail "overflowing window accepted"
  | Error _ -> ());
  match Ordering.of_string "total-store-order" with
  | Ok _ -> Alcotest.fail "unknown mode accepted"
  | Error _ -> ()

(* --- strict: fences are free ----------------------------------------- *)

let test_strict_fence_free () =
  let engine, mem = make_memory () in
  in_fiber engine (fun () ->
      let before = Engine.now engine in
      let f = Ivar.await (Memory.fence_async mem ~from:0) in
      Alcotest.check op_result "strict fence acks" Memory.Ack f;
      Alcotest.(check (float 0.0)) "and costs zero virtual time" before
        (Engine.now engine))

(* --- completion-lag -------------------------------------------------- *)

let region_all = Permission.all_readwrite ~n:2

(* The defining race: the issuer's Ack arrives while the bytes are still
   in flight, so a rival read misses the acked write; the issuer's own
   follow-up read waits for its QP floor (IB read-after-write ordering)
   and once it returns, the write is visible to everyone. *)
let test_completion_outruns_bytes () =
  let engine, mem =
    make_memory ~ordering:(Ordering.Completion_lag { max_lag = 50.0 }) ()
  in
  Memory.add_region mem ~name:"r" ~perm:region_all ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let w = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v") in
      Alcotest.check op_result "write acks" Memory.Ack w;
      Alcotest.(check (option string)) "bytes not applied at completion" None
        (Memory.peek_register mem "x");
      let rival = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "rival read misses the acked write"
        (Memory.Read None) rival;
      (* same-QP read: waits out the issuer's floor, sees the write *)
      let own = Ivar.await (Memory.read_async mem ~from:0 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "issuer's own read waits for its write"
        (Memory.Read (Some "v")) own;
      let rival' = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "apply done: everyone sees it"
        (Memory.Read (Some "v")) rival')

(* An explicit fence publishes: once the issuer's fence completes, every
   write it issued before the fence has been applied. *)
let test_fence_publishes () =
  let engine, mem =
    make_memory ~ordering:(Ordering.Completion_lag { max_lag = 50.0 }) ()
  in
  Memory.add_region mem ~name:"r" ~perm:region_all ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let w = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v") in
      Alcotest.check op_result "write acks" Memory.Ack w;
      let f = Ivar.await (Memory.fence_async mem ~from:0) in
      Alcotest.check op_result "fence acks" Memory.Ack f;
      Alcotest.(check (option string)) "fence completion implies applied"
        (Some "v")
        (Memory.peek_register mem "x");
      let rival = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "rival sees the fenced write"
        (Memory.Read (Some "v")) rival)

(* The control-plane drain: a permission change waits out every
   outstanding write on the memory before applying — an IB memory
   registration change completes outstanding DMA first.  This is what
   keeps permission-based algorithms safe without explicit fences. *)
let test_control_drains_data () =
  let legal_change ~pid ~region:_ ~current:_ ~requested =
    Permission.sole_writer requested = Some pid
  in
  let engine, mem =
    make_memory ~legal_change
      ~ordering:(Ordering.Completion_lag { max_lag = 50.0 })
      ()
  in
  Memory.add_region mem ~name:"r"
    ~perm:(Permission.exclusive_writer ~writer:0 ~n:2)
    ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let w = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v") in
      Alcotest.check op_result "owner's write acks" Memory.Ack w;
      Alcotest.(check (option string)) "still in flight" None
        (Memory.peek_register mem "x");
      (* p1 steals writership: the change must drain p0's lagged write *)
      let c =
        Ivar.await
          (Memory.change_permission_async mem ~from:1 ~region:"r"
             ~perm:(Permission.exclusive_writer ~writer:1 ~n:2))
      in
      Alcotest.check op_result "takeover applied" Memory.Ack c;
      Alcotest.(check (option string))
        "the pre-revocation write landed before the revocation" (Some "v")
        (Memory.peek_register mem "x"))

(* Satellite: a lagged write never crosses a restart.  The completion
   was delivered, but the memory crashes before the apply instant; the
   epoch guard drops the in-flight mutation, so the rejoined (empty)
   memory stays empty and the register reads as stale — amnesia is
   surfaced, never silently papered over. *)
let test_restart_drops_lagged_write () =
  let engine, mem =
    make_memory ~ordering:(Ordering.Completion_lag { max_lag = 50.0 }) ()
  in
  Memory.add_region mem ~name:"r" ~perm:region_all ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let w = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v") in
      Alcotest.check op_result "write acks before the crash" Memory.Ack w;
      Alcotest.(check (option string)) "bytes still in flight" None
        (Memory.peek_register mem "x");
      Memory.crash mem;
      Memory.restart mem;
      Alcotest.(check int) "fresh epoch" 1 (Memory.epoch mem);
      (* run far past the original apply instant (~40.55) *)
      Engine.sleep 100.0;
      Alcotest.(check (option string)) "lagged write never lands" None
        (Memory.peek_register mem "x");
      let r = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "register is stale, not silently ⊥"
        Memory.Read_nak r;
      (* a fresh-epoch write repairs it and reads serve again *)
      let w' = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v2") in
      Alcotest.check op_result "repair write acks" Memory.Ack w';
      let own = Ivar.await (Memory.read_async mem ~from:0 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "repaired register serves"
        (Memory.Read (Some "v2")) own)

(* --- reordered-qp ---------------------------------------------------- *)

(* Completion implies delivery under reordering: the response follows
   the perturbed apply, so an awaited Ack means the bytes are there. *)
let test_reorder_completion_implies_applied () =
  let engine, mem =
    make_memory ~ordering:(Ordering.Reorder_qp { window = 20.0 }) ()
  in
  Memory.add_region mem ~name:"r" ~perm:region_all ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let w = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v") in
      Alcotest.check op_result "write acks" Memory.Ack w;
      Alcotest.(check (option string)) "ack implies applied" (Some "v")
        (Memory.peek_register mem "x"))

(* Two in-flight same-QP ops apply out of issue order: the read issued
   after the write overtakes it (seed 1: d_read < d_write) and returns
   ⊥ even though the write eventually acks. *)
let test_reorder_read_overtakes_write () =
  let engine, mem =
    make_memory ~ordering:(Ordering.Reorder_qp { window = 20.0 }) ()
  in
  Memory.add_region mem ~name:"r" ~perm:region_all ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let w = Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v" in
      let r = Memory.read_async mem ~from:0 ~region:"r" ~reg:"x" in
      Alcotest.check read_result "read overtakes the in-flight write"
        (Memory.Read None) (Ivar.await r);
      Alcotest.check op_result "the write still acks" Memory.Ack (Ivar.await w);
      Alcotest.(check (option string)) "and still lands" (Some "v")
        (Memory.peek_register mem "x"))

(* A fence between the two restores program order for any draw: ops
   issued after the fence cannot apply before ops issued before it. *)
let test_reorder_fence_restores_order () =
  let engine, mem =
    make_memory ~ordering:(Ordering.Reorder_qp { window = 20.0 }) ()
  in
  Memory.add_region mem ~name:"r" ~perm:region_all ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let w = Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v" in
      let f = Memory.fence_async mem ~from:0 in
      let r = Memory.read_async mem ~from:0 ~region:"r" ~reg:"x" in
      Alcotest.check read_result "fenced read sees the write"
        (Memory.Read (Some "v")) (Ivar.await r);
      Alcotest.check op_result "write acks" Memory.Ack (Ivar.await w);
      Alcotest.check op_result "fence acks" Memory.Ack (Ivar.await f))

(* --- the client fence over a quorum ---------------------------------- *)

let test_memclient_fence_quorum () =
  let engine = Engine.create () in
  let memories =
    Array.init 3 (fun mid ->
        let m = Memory.create ~seed:1 ~engine ~mid () in
        Memory.set_ordering m (Ordering.Completion_lag { max_lag = 50.0 });
        Memory.add_region m ~name:"r" ~perm:region_all ~registers:[ "x" ];
        m)
  in
  let writer = Memclient.create ~pid:0 ~memories in
  let reader = Memclient.create ~pid:1 ~memories in
  in_fiber engine (fun () ->
      let all_ack ivars =
        List.for_all (fun (_, r) -> r = Memory.Ack) (Par.await_all ivars)
      in
      Alcotest.(check bool) "quorum write acks" true
        (all_ack (Memclient.write_all_async writer ~region:"r" ~reg:"x" "v"));
      Alcotest.(check bool) "quorum fence acks" true
        (all_ack (Memclient.fence_all_async writer));
      (* after the fence, the write is applied at every fenced memory *)
      let reads = Par.await_all (Memclient.read_all_async reader ~region:"r" ~reg:"x") in
      List.iter
        (fun (mid, r) ->
          Alcotest.check read_result
            (Printf.sprintf "memory %d serves the fenced write" mid)
            (Memory.Read (Some "v")) r)
        reads)

let test_memclient_fence_strict_free () =
  let engine = Engine.create () in
  let memories =
    Array.init 3 (fun mid ->
        let m = Memory.create ~engine ~mid () in
        Memory.add_region m ~name:"r" ~perm:region_all ~registers:[ "x" ];
        m)
  in
  let client = Memclient.create ~pid:0 ~memories in
  in_fiber engine (fun () ->
      let before = Engine.now engine in
      Alcotest.(check bool) "strict quorum fence acks" true
        (List.for_all
           (fun (_, r) -> r = Memory.Ack)
           (Par.await_all (Memclient.fence_all_async client)));
      Alcotest.check op_result "strict single fence acks" Memory.Ack
        (Memclient.fence client ~mem:0);
      Alcotest.(check (float 0.0)) "both cost zero virtual time" before
        (Engine.now engine))

(* --- cluster plumbing ------------------------------------------------ *)

let test_cluster_set_ordering () =
  let cluster : string Rdma_mm.Cluster.t = Rdma_mm.Cluster.create ~n:2 ~m:3 () in
  Alcotest.(check bool) "clusters default to strict" true
    (Ordering.equal (Rdma_mm.Cluster.ordering cluster) Ordering.Strict);
  let mode = Ordering.Completion_lag { max_lag = 6.0 } in
  Rdma_mm.Cluster.set_ordering cluster mode;
  Alcotest.(check bool) "set_ordering reaches every memory" true
    (Ordering.equal (Rdma_mm.Cluster.ordering cluster) mode);
  for mid = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "memory %d switched" mid)
      true
      (Ordering.equal (Memory.ordering (Rdma_mm.Cluster.memory cluster mid)) mode)
  done

let suite =
  [
    Alcotest.test_case "mode names parse and round trip" `Quick test_mode_strings;
    Alcotest.test_case "strict fence is free" `Quick test_strict_fence_free;
    Alcotest.test_case "completion-lag: ack outruns the bytes" `Quick
      test_completion_outruns_bytes;
    Alcotest.test_case "completion-lag: fence publishes" `Quick
      test_fence_publishes;
    Alcotest.test_case "completion-lag: permission change drains writes" `Quick
      test_control_drains_data;
    Alcotest.test_case "restart drops in-flight lagged writes" `Quick
      test_restart_drops_lagged_write;
    Alcotest.test_case "reordered-qp: completion implies applied" `Quick
      test_reorder_completion_implies_applied;
    Alcotest.test_case "reordered-qp: read overtakes in-flight write" `Quick
      test_reorder_read_overtakes_write;
    Alcotest.test_case "reordered-qp: fence restores program order" `Quick
      test_reorder_fence_restores_order;
    Alcotest.test_case "memclient fence_quorum publishes to quorum" `Quick
      test_memclient_fence_quorum;
    Alcotest.test_case "memclient fences free under strict" `Quick
      test_memclient_fence_strict_free;
    Alcotest.test_case "cluster-wide set_ordering" `Quick test_cluster_set_ordering;
  ]

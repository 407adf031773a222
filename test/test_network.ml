(* Network substrate tests: latency = one delay unit, integrity, no-loss,
   GST-controlled asynchrony, partitions (buffer + heal), Ω oracle. *)

open Rdma_sim
open Rdma_net
open Rdma_mm

let build ?(n = 3) () =
  let engine = Engine.create () in
  let net : string Network.t = Network.create ~engine ~n () in
  (engine, net)

let test_one_delay () =
  let engine, net = build () in
  let arrival = ref 0.0 in
  ignore
    (Engine.spawn engine "recv" (fun () ->
         let from, msg = Network.recv (Network.endpoint net 1) in
         arrival := Engine.now engine;
         Alcotest.(check int) "sender id" 0 from;
         Alcotest.(check string) "payload" "hello" msg));
  ignore
    (Engine.spawn engine "send" (fun () ->
         Network.send (Network.endpoint net 0) ~dst:1 "hello"));
  Engine.run engine;
  Alcotest.(check (float 0.0)) "a message costs one delay" 1.0 !arrival

let test_broadcast_counts () =
  let engine, net = build ~n:4 () in
  ignore
    (Engine.spawn engine "send" (fun () ->
         Network.broadcast (Network.endpoint net 2) "x"));
  Engine.run engine;
  Alcotest.(check int) "broadcast = n sends" 4
    (Rdma_obs.Obs.counter (Engine.obs engine) "net.msgs.sent")

let test_fifo_per_link_by_time () =
  let engine, net = build () in
  let got = ref [] in
  ignore
    (Engine.spawn engine "recv" (fun () ->
         let ep = Network.endpoint net 1 in
         for _ = 1 to 3 do
           let _, m = Network.recv ep in
           got := m :: !got
         done));
  ignore
    (Engine.spawn engine "send" (fun () ->
         let ep = Network.endpoint net 0 in
         Network.send ep ~dst:1 "1";
         Network.send ep ~dst:1 "2";
         Network.send ep ~dst:1 "3"));
  Engine.run engine;
  Alcotest.(check (list string)) "same-time sends deliver in order" [ "1"; "2"; "3" ]
    (List.rev !got)

let test_gst_extra_delay () =
  let engine, net = build () in
  Network.set_gst net ~at:10.0 ~extra:(fun ~src:_ ~dst:_ ~now:_ -> 7.0);
  let first = ref 0.0 and second = ref 0.0 in
  ignore
    (Engine.spawn engine "recv" (fun () ->
         let ep = Network.endpoint net 1 in
         ignore (Network.recv ep);
         first := Engine.now engine;
         ignore (Network.recv ep);
         second := Engine.now engine));
  ignore
    (Engine.spawn engine "send" (fun () ->
         let ep = Network.endpoint net 0 in
         Network.send ep ~dst:1 "early";
         Engine.sleep 12.0;
         Network.send ep ~dst:1 "late"));
  Engine.run engine;
  Alcotest.(check (float 0.0)) "pre-GST message delayed" 8.0 !first;
  Alcotest.(check (float 0.0)) "post-GST message takes one delay" 13.0 !second

let test_partition_buffers_not_drops () =
  let engine, net = build () in
  Network.partition net [ (0, 1) ];
  let got_at = ref (-1.0) in
  ignore
    (Engine.spawn engine "recv" (fun () ->
         ignore (Network.recv (Network.endpoint net 1));
         got_at := Engine.now engine));
  ignore
    (Engine.spawn engine "send" (fun () ->
         Network.send (Network.endpoint net 0) ~dst:1 "m"));
  Engine.schedule engine 20.0 (fun () -> Network.heal net);
  Engine.run engine;
  Alcotest.(check (float 0.0)) "buffered message delivered after heal" 21.0 !got_at

(* No-loss under partition, exhaustively: several messages in both
   directions are buffered (never dropped) and every one is delivered
   once the partition heals. *)
let test_partition_no_loss_multi () =
  let engine, net = build () in
  Network.partition net [ (0, 1); (1, 0) ];
  Alcotest.(check (list (pair int int)))
    "severed pairs visible" [ (0, 1); (1, 0) ] (Network.severed net);
  let at_1 = ref [] and at_0 = ref [] in
  ignore
    (Engine.spawn engine "recv1" (fun () ->
         for _ = 1 to 3 do
           let _, m = Network.recv (Network.endpoint net 1) in
           at_1 := m :: !at_1
         done));
  ignore
    (Engine.spawn engine "recv0" (fun () ->
         for _ = 1 to 2 do
           let _, m = Network.recv (Network.endpoint net 0) in
           at_0 := m :: !at_0
         done));
  ignore
    (Engine.spawn engine "send" (fun () ->
         let e0 = Network.endpoint net 0 and e1 = Network.endpoint net 1 in
         Network.send e0 ~dst:1 "a";
         Network.send e1 ~dst:0 "x";
         Engine.sleep 2.0;
         Network.send e0 ~dst:1 "b";
         Network.send e1 ~dst:0 "y";
         Engine.sleep 2.0;
         Network.send e0 ~dst:1 "c"));
  Engine.schedule engine 10.0 (fun () -> Network.heal net);
  Engine.run engine;
  Alcotest.(check (list string))
    "all 0->1 messages delivered after heal" [ "a"; "b"; "c" ]
    (List.sort compare !at_1);
  Alcotest.(check (list string))
    "all 1->0 messages delivered after heal" [ "x"; "y" ]
    (List.sort compare !at_0);
  Alcotest.(check (list (pair int int))) "healed" [] (Network.severed net)

(* Links are not FIFO: with randomized per-message latency, a message
   buffered later can overtake one buffered earlier when the heal
   flushes them — the model only guarantees integrity and no-loss. *)
let test_partition_heal_overtakes () =
  let engine = Engine.create ~seed:3 () in
  let net : string Network.t = Network.create ~engine ~n:2 () in
  Network.randomize_latency net ~rng:(Engine.rng engine) ~min:0.5 ~max:5.0;
  Network.partition net [ (0, 1) ];
  let got = ref [] in
  ignore
    (Engine.spawn engine "recv" (fun () ->
         for _ = 1 to 2 do
           let _, m = Network.recv (Network.endpoint net 1) in
           got := m :: !got
         done));
  ignore
    (Engine.spawn engine "send" (fun () ->
         let ep = Network.endpoint net 0 in
         Network.send ep ~dst:1 "first";
         Engine.sleep 1.0;
         Network.send ep ~dst:1 "second"));
  Engine.schedule engine 10.0 (fun () -> Network.heal net);
  Engine.run engine;
  Alcotest.(check (list string))
    "later message overtakes the earlier one" [ "second"; "first" ]
    (List.rev !got)

let test_partition_rejects_bad_pid () =
  let _, net = build () in
  Alcotest.check_raises "pid out of range"
    (Invalid_argument "Network.partition: pid out of range") (fun () ->
      Network.partition net [ (0, 3) ])

let test_recv_timeout () =
  let engine, net = build () in
  let got = ref (Some (0, "x")) in
  ignore
    (Engine.spawn engine "recv" (fun () ->
         got := Network.recv_timeout (Network.endpoint net 1) 3.0));
  Engine.run engine;
  Alcotest.(check bool) "times out with no traffic" true (!got = None)

(* Ω oracle *)

let test_omega_wait_until_leader () =
  let engine = Engine.create () in
  let omega = Omega.create ~engine ~initial:0 in
  let woke_at = ref (-1.0) in
  ignore
    (Engine.spawn engine "candidate" (fun () ->
         Omega.wait_until_leader omega ~me:2;
         woke_at := Engine.now engine));
  Omega.set_leader_after omega 5.0 2;
  Engine.run engine;
  Alcotest.(check (float 0.0)) "woken exactly at leadership change" 5.0 !woke_at

let test_omega_already_leader () =
  let engine = Engine.create () in
  let omega = Omega.create ~engine ~initial:1 in
  let passed = ref false in
  ignore
    (Engine.spawn engine "leader" (fun () ->
         Omega.wait_until_leader omega ~me:1;
         passed := true));
  Engine.run engine;
  Alcotest.(check bool) "no wait when already leader" true !passed

let test_omega_history () =
  let engine = Engine.create () in
  let omega = Omega.create ~engine ~initial:0 in
  Omega.set_leader_after omega 1.0 1;
  Omega.set_leader_after omega 2.0 2;
  Engine.run engine;
  Alcotest.(check (list (pair (float 0.0) int)))
    "history records changes"
    [ (0.0, 0); (1.0, 1); (2.0, 2) ]
    (Omega.history omega)

let test_omega_no_spurious_wake () =
  let engine = Engine.create () in
  let omega = Omega.create ~engine ~initial:0 in
  let woke = ref false in
  ignore
    (Engine.spawn engine "candidate" (fun () ->
         Omega.wait_until_leader omega ~me:2;
         woke := true));
  Omega.set_leader_after omega 1.0 1;
  Engine.run engine;
  Alcotest.(check bool) "other changes do not wake" false !woke

let suite =
  [
    Alcotest.test_case "message costs one delay" `Quick test_one_delay;
    Alcotest.test_case "broadcast sends n messages" `Quick test_broadcast_counts;
    Alcotest.test_case "same-time sends keep order" `Quick test_fifo_per_link_by_time;
    Alcotest.test_case "pre-GST asynchrony" `Quick test_gst_extra_delay;
    Alcotest.test_case "partition buffers, heal flushes" `Quick
      test_partition_buffers_not_drops;
    Alcotest.test_case "partition no-loss, both directions" `Quick
      test_partition_no_loss_multi;
    Alcotest.test_case "heal flush can reorder (non-FIFO)" `Quick
      test_partition_heal_overtakes;
    Alcotest.test_case "partition validates pids" `Quick
      test_partition_rejects_bad_pid;
    Alcotest.test_case "recv timeout" `Quick test_recv_timeout;
    Alcotest.test_case "omega wakes new leader" `Quick test_omega_wait_until_leader;
    Alcotest.test_case "omega immediate when leader" `Quick test_omega_already_leader;
    Alcotest.test_case "omega records history" `Quick test_omega_history;
    Alcotest.test_case "omega no spurious wakeups" `Quick test_omega_no_spurious_wake;
  ]

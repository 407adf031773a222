(* Non-equivocating broadcast (Algorithm 2): the three properties of
   Definition 1, plus equivocation and memory-failure scenarios. *)

open Rdma_sim
open Rdma_mm
open Rdma_consensus

(* Harness: n processes, m memories; honest processes broadcast the
   given messages and record deliveries as (src, k, msg). *)
type recorded = (int * int * string) list ref

let neb_cfg = { Neb.default_config with give_up_at = 300.0; poll_interval = 1.0 }

let build ?(seed = 1) ~n ~m () =
  let cluster : string Cluster.t = Cluster.create ~seed ~n ~m () in
  Neb.setup_regions cluster ~max_seq:neb_cfg.Neb.max_seq ();
  cluster

(* Honest participant: broadcast [msgs] (spaced out), deliver everything
   until the configured give-up time. *)
let honest ?(cfg = neb_cfg) ~msgs ~(log : recorded) () (ctx : _ Cluster.ctx) =
  let neb =
    Neb.create ctx ~cfg
      ~deliver:(fun ~k ~msg ~src -> log := (src, k, msg) :: !log)
      ()
  in
  Neb.spawn_poller ctx neb;
  List.iter
    (fun m ->
      Neb.broadcast neb m;
      Engine.sleep 1.0)
    msgs

let delivered_by log ~src = List.rev (List.filter_map (fun (s, k, m) -> if s = src then Some (k, m) else None) !log)

let test_broadcast_delivered_by_all () =
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let logs = Array.init n (fun _ -> ref []) in
  for pid = 0 to n - 1 do
    let msgs = if pid = 0 then [ "hello"; "world" ] else [] in
    Cluster.spawn cluster ~pid (honest ~msgs ~log:logs.(pid) ())
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Array.iteri
    (fun pid log ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "p%d delivers p0's messages in order" pid)
        [ (1, "hello"); (2, "world") ]
        (delivered_by log ~src:0))
    logs

let test_all_broadcast () =
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let logs = Array.init n (fun _ -> ref []) in
  for pid = 0 to n - 1 do
    Cluster.spawn cluster ~pid
      (honest ~msgs:[ Printf.sprintf "from%d" pid ] ~log:logs.(pid) ())
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Array.iteri
    (fun pid log ->
      for src = 0 to n - 1 do
        Alcotest.(check (list (pair int string)))
          (Printf.sprintf "p%d delivers p%d" pid src)
          [ (1, Printf.sprintf "from%d" src) ]
          (delivered_by log ~src)
      done)
    logs

let test_no_forged_source () =
  (* Property 3: nothing is delivered from a process that broadcast
     nothing — even when another process writes into its own region
     *about* that process. *)
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let logs = Array.init n (fun _ -> ref []) in
  Cluster.spawn cluster ~pid:0 (honest ~msgs:[ "real" ] ~log:logs.(0) ());
  Cluster.spawn cluster ~pid:1 (honest ~msgs:[] ~log:logs.(1) ());
  (* p2 is Byzantine: it plants a (forged) value in its *copy* slot for
     p1's first message. *)
  Cluster.spawn_byzantine cluster ~pid:2 (fun ctx ->
      let own = Rdma_reg.Swmr.attach ~client:ctx.Cluster.client ~region:(Neb.region_of 2) in
      let fake =
        Neb.encode_slot ~k:1 ~msg:"forged"
          ~signature:(Rdma_crypto.Keychain.forge ~author:1 (Neb.slot_payload ~k:1 "forged"))
      in
      ignore (Rdma_reg.Swmr.write own ~reg:(Neb.slot_reg ~owner:2 ~k:1 ~src:1) fake));
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (pair int string))) "nothing delivered from silent p1" []
    (delivered_by logs.(0) ~src:1)

let test_overwrite_equivocation_contained () =
  (* A Byzantine broadcaster overwrites its slot with a second signed
     value: property 2 — no two correct processes deliver different
     values; our implementation additionally refuses to deliver once the
     conflict is visible. *)
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let logs = Array.init n (fun _ -> ref []) in
  Cluster.spawn_byzantine cluster ~pid:0
    (Attacks.neb_overwrite_equivocation ~m1:"black" ~m2:"white");
  for pid = 1 to n - 1 do
    Cluster.spawn cluster ~pid (honest ~msgs:[] ~log:logs.(pid) ())
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  let d1 = delivered_by logs.(1) ~src:0 in
  let d2 = delivered_by logs.(2) ~src:0 in
  (match (d1, d2) with
  | [ (1, v1) ], [ (1, v2) ] ->
      Alcotest.(check string) "no two correct processes deliver different values" v1 v2
  | _ -> () (* delivering nothing is also correct *));
  Alcotest.(check bool) "at most one delivery each" true
    (List.length d1 <= 1 && List.length d2 <= 1)

let test_replica_equivocation_blocked () =
  (* Different signed values on different memory replicas.  The SWMR
     majority-read rule means every reader sees one value or ⊥ — two
     correct readers can disagree only transiently as ⊥, and the
     algorithm's copy-and-crosscheck step resolves that.  The property to
     hold (Definition 1, property 2): no two correct processes deliver
     different values. *)
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let logs = Array.init n (fun _ -> ref []) in
  Cluster.spawn_byzantine cluster ~pid:0
    (Attacks.neb_replica_equivocation ~m1:"black" ~m2:"white");
  for pid = 1 to n - 1 do
    Cluster.spawn cluster ~pid (honest ~msgs:[] ~log:logs.(pid) ())
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  let d1 = delivered_by logs.(1) ~src:0 and d2 = delivered_by logs.(2) ~src:0 in
  (match (d1, d2) with
  | [ (1, v1) ], [ (1, v2) ] ->
      Alcotest.(check string) "correct processes deliver the same value" v1 v2
  | ([] | [ _ ]), ([] | [ _ ]) -> ()
  | _ -> Alcotest.fail "more than one delivery from a single broadcast")

let test_replica_split_with_empty_third () =
  (* The sharpest replica attack: black on µ0, white on µ1, nothing on
     µ2 — different majorities now read different single values, and only
     the cross-check step prevents divergent deliveries. *)
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let logs = Array.init n (fun _ -> ref []) in
  Cluster.spawn_byzantine cluster ~pid:0 (fun ctx ->
      let slot = Neb.slot_reg ~owner:0 ~k:1 ~src:0 in
      let signed m =
        Neb.encode_slot ~k:1 ~msg:m
          ~signature:
            (Rdma_crypto.Keychain.sign ctx.Cluster.signer (Neb.slot_payload ~k:1 m))
      in
      let client = ctx.Cluster.client in
      ignore
        (Rdma_mem.Memclient.write client ~mem:0 ~region:(Neb.region_of 0) ~reg:slot
           (signed "black"));
      ignore
        (Rdma_mem.Memclient.write client ~mem:1 ~region:(Neb.region_of 0) ~reg:slot
           (signed "white")));
  for pid = 1 to n - 1 do
    Cluster.spawn cluster ~pid (honest ~msgs:[] ~log:logs.(pid) ())
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  let d1 = delivered_by logs.(1) ~src:0 and d2 = delivered_by logs.(2) ~src:0 in
  match (d1, d2) with
  | [ (1, v1) ], [ (1, v2) ] ->
      Alcotest.(check string) "no divergent deliveries under replica split" v1 v2
  | ([] | [ _ ]), ([] | [ _ ]) -> ()
  | _ -> Alcotest.fail "more than one delivery from a single broadcast"

let test_survives_memory_crashes () =
  let n = 3 and m = 5 in
  let cluster = build ~n ~m () in
  let logs = Array.init n (fun _ -> ref []) in
  for pid = 0 to n - 1 do
    let msgs = if pid = 1 then [ "survivor" ] else [] in
    Cluster.spawn cluster ~pid (honest ~msgs ~log:logs.(pid) ())
  done;
  Fault.apply cluster
    [ Crash_memory { mid = 0; at = 0.0 }; Crash_memory { mid = 3; at = 0.0 } ];
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Array.iteri
    (fun pid log ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "p%d delivers despite 2/5 memory crashes" pid)
        [ (1, "survivor") ]
        (delivered_by log ~src:1))
    logs

let test_wrong_key_not_delivered () =
  (* A Byzantine broadcaster writes sequence number 5 into its k=1 slot:
     the key check refuses it. *)
  let n = 2 and m = 3 in
  let cluster = build ~n ~m () in
  let log = ref [] in
  Cluster.spawn_byzantine cluster ~pid:0 (fun ctx ->
      let own =
        Rdma_reg.Swmr.attach ~client:ctx.Cluster.client ~region:(Neb.region_of 0)
      in
      let v =
        Neb.encode_slot ~k:5 ~msg:"skip"
          ~signature:
            (Rdma_crypto.Keychain.sign ctx.Cluster.signer (Neb.slot_payload ~k:5 "skip"))
      in
      ignore (Rdma_reg.Swmr.write own ~reg:(Neb.slot_reg ~owner:0 ~k:1 ~src:0) v));
  Cluster.spawn cluster ~pid:1 (honest ~msgs:[] ~log ());
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (pair int string))) "mis-keyed slot not delivered" []
    (delivered_by log ~src:0)

let test_reencoded_copy_cannot_frame () =
  (* Property 1 against a Byzantine copier: p2 copies p0's signed k=1
     slot into its own copy slot re-encoded (k spelled "01"; message and
     signature unchanged).  The copy differs bytewise but carries the
     same signed message, so it proves no equivocation: correct p1 still
     delivers p0's message. *)
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let logs = Array.init n (fun _ -> ref []) in
  Cluster.spawn cluster ~pid:0 (honest ~msgs:[ "hello" ] ~log:logs.(0) ());
  Cluster.spawn cluster ~pid:1 (honest ~msgs:[] ~log:logs.(1) ());
  Cluster.spawn_byzantine cluster ~pid:2 (fun ctx ->
      let attach p = Rdma_reg.Swmr.attach ~client:ctx.Cluster.client ~region:(Neb.region_of p) in
      let rec slot_of_p0 () =
        match Rdma_reg.Swmr.read (attach 0) ~reg:(Neb.slot_reg ~owner:0 ~k:1 ~src:0) with
        | Some raw -> raw
        | None ->
            Engine.sleep 1.0;
            slot_of_p0 ()
      in
      match Codec.split3 (slot_of_p0 ()) with
      | Some ("1", msg, sig_enc) ->
          ignore
            (Rdma_reg.Swmr.write (attach 2)
               ~reg:(Neb.slot_reg ~owner:2 ~k:1 ~src:0)
               (Codec.join3 "01" msg sig_enc))
      | _ -> Alcotest.fail "p0's slot is not a k=1 slot");
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (pair int string))) "p1 delivers p0's message" [ (1, "hello") ]
    (delivered_by logs.(1) ~src:0)

let test_delivery_order_is_sequential () =
  (* Messages from one sender are delivered in sequence-number order,
     with no gaps, even when broadcast in a burst. *)
  let n = 2 and m = 3 in
  let cluster = build ~n ~m () in
  let log = ref [] in
  Cluster.spawn cluster ~pid:0 (fun ctx ->
      let neb = Neb.create ctx ~cfg:neb_cfg ~deliver:(fun ~k:_ ~msg:_ ~src:_ -> ()) () in
      Neb.spawn_poller ctx neb;
      for i = 1 to 5 do
        Neb.broadcast neb (Printf.sprintf "m%d" i)
      done);
  Cluster.spawn cluster ~pid:1 (honest ~msgs:[] ~log ());
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (pair int string)))
    "burst delivered in order"
    [ (1, "m1"); (2, "m2"); (3, "m3"); (4, "m4"); (5, "m5") ]
    (delivered_by log ~src:0)

let test_broadcaster_crash_mid_write () =
  (* The broadcaster crashes while its replicated write is in flight: the
     message may or may not deliver, but correct processes never
     diverge.  Sweep the crash instant across the write's window. *)
  List.iter
    (fun at ->
      let n = 3 and m = 3 in
      let cluster = build ~n ~m () in
      let logs = Array.init n (fun _ -> ref []) in
      for pid = 0 to n - 1 do
        let msgs = if pid = 0 then [ "maybe" ] else [] in
        Cluster.spawn cluster ~pid (honest ~msgs ~log:logs.(pid) ())
      done;
      Fault.apply cluster [ Crash_process { pid = 0; at } ];
      Cluster.run cluster;
      Cluster.check_errors cluster;
      let d1 = delivered_by logs.(1) ~src:0 and d2 = delivered_by logs.(2) ~src:0 in
      Alcotest.(check bool)
        (Printf.sprintf "no divergence (crash at %.2f)" at)
        true (d1 = d2))
    [ 0.25; 0.5; 0.75; 1.0; 1.25; 1.5; 2.0 ]

(* {2 Slot membership}

   A NEB region is laid out on first access, so its membership test
   alone decides which names are slots.  It must accept exactly the
   names the slot formatter produces: an owner's write to every slot
   acks on every memory, and a write to a near miss naks. *)

let slot_name ~ns ~owner ~k ~src = Printf.sprintf "%ss.%d.%d.%d" ns owner k src

(* Issue one write per (owner, name) on every memory, run the cluster,
   and return each write's result. *)
let write_all cluster ~ns writes =
  let ivars =
    List.concat_map
      (fun (owner, reg) ->
        List.init (Cluster.m cluster) (fun mid ->
            ( (owner, reg, mid),
              Rdma_mem.Memory.write_async (Cluster.memory cluster mid) ~from:owner
                ~region:(Neb.region_of ~ns owner) ~reg "v" )))
      writes
  in
  Cluster.run cluster;
  List.map (fun (w, iv) -> (w, Ivar.peek iv)) ivars

let check_membership ~ns ~n ~max_seq () =
  let cluster : string Cluster.t = Cluster.create ~n ~m:3 () in
  Neb.setup_regions cluster ~ns ~max_seq ();
  let slots =
    List.concat_map
      (fun owner ->
        List.concat_map
          (fun k -> List.init n (fun src -> (owner, slot_name ~ns ~owner ~k ~src)))
          (List.init max_seq succ))
      (List.init n Fun.id)
  in
  let near_misses =
    List.concat_map
      (fun owner ->
        let other_ns = if ns = "" then "s3." else "" in
        List.map
          (fun reg -> (owner, reg))
          [
            slot_name ~ns ~owner ~k:0 ~src:0;
            slot_name ~ns ~owner ~k:(max_seq + 1) ~src:0;
            slot_name ~ns ~owner ~k:1 ~src:n;
            slot_name ~ns ~owner ~k:1 ~src:(-1);
            Printf.sprintf "%ss.%d.01.0" ns owner;
            Printf.sprintf "%ss.%d.1.00" ns owner;
            Printf.sprintf "%ss.%d.-0.0" ns owner;
            Printf.sprintf "%ss.%d.1.-0" ns owner;
            slot_name ~ns ~owner:(owner + 1) ~k:1 ~src:0;
            slot_name ~ns:other_ns ~owner ~k:1 ~src:0;
            slot_name ~ns ~owner ~k:1 ~src:0 ^ ".";
            Printf.sprintf "%ss.%d.1" ns owner;
            Printf.sprintf "%ss.%d.1.0.0" ns owner;
            Printf.sprintf "%ss.%d." ns owner;
          ])
      (List.init n Fun.id)
  in
  let expect result writes =
    List.iter
      (fun ((owner, reg, mid), r) ->
        Alcotest.(check bool)
          (Printf.sprintf "p%d writes %s on mu%d" owner reg mid)
          true
          (r = Some result))
      (write_all cluster ~ns writes)
  in
  expect Rdma_mem.Memory.Ack slots;
  expect Rdma_mem.Memory.Nak near_misses;
  List.iter
    (fun (_, reg) ->
      if not (List.exists (fun (_, slot) -> slot = reg) slots) then
        Alcotest.(check (option string)) (reg ^ " holds nothing") None
          (Rdma_mem.Memory.peek_register (Cluster.memory cluster 0) reg))
    near_misses

let test_slot_membership_exact () =
  Alcotest.(check string) "the test's slot format is Neb's" (Neb.slot_reg ~owner:2 ~k:7 ~src:1)
    (slot_name ~ns:"" ~owner:2 ~k:7 ~src:1);
  check_membership ~ns:"" ~n:3 ~max_seq:4 ();
  check_membership ~ns:"s3." ~n:5 ~max_seq:128 ();
  check_membership ~ns:"" ~n:1 ~max_seq:1 ()

let suite =
  [
    Alcotest.test_case "broadcaster crash mid-write sweep" `Quick
      test_broadcaster_crash_mid_write;
    Alcotest.test_case "property 1: broadcasts delivered by all" `Quick
      test_broadcast_delivered_by_all;
    Alcotest.test_case "all-to-all broadcast" `Quick test_all_broadcast;
    Alcotest.test_case "property 3: no forged sources" `Quick test_no_forged_source;
    Alcotest.test_case "property 2: overwrite equivocation contained" `Quick
      test_overwrite_equivocation_contained;
    Alcotest.test_case "replica equivocation: no divergence" `Quick
      test_replica_equivocation_blocked;
    Alcotest.test_case "replica split with empty third" `Quick
      test_replica_split_with_empty_third;
    Alcotest.test_case "tolerates minority memory crashes" `Quick
      test_survives_memory_crashes;
    Alcotest.test_case "mis-keyed slots are not delivered" `Quick
      test_wrong_key_not_delivered;
    Alcotest.test_case "per-sender FIFO delivery" `Quick test_delivery_order_is_sequential;
    Alcotest.test_case "property 1: a re-encoded copy cannot frame" `Quick
      test_reencoded_copy_cannot_frame;
    Alcotest.test_case "slot membership is exact" `Quick test_slot_membership_exact;
  ]

(* Unit tests for the reporting layer: Report invariant checks, Fault
   pretty-printing, Memclient quorum helpers. *)

open Rdma_sim
open Rdma_mem
open Rdma_mm
open Rdma_consensus

let mk_report decisions =
  let n = Array.length decisions in
  Report.of_cluster ~algorithm:"test" ~n ~m:0 ~decisions
    (Cluster.create ~n ~m:0 () : unit Cluster.t)

let d v at = Some { Report.value = v; at }

let test_agreement () =
  Alcotest.(check bool) "uniform" true
    (Report.agreement_ok (mk_report [| d "x" 1.0; d "x" 2.0; None |]));
  Alcotest.(check bool) "split detected" false
    (Report.agreement_ok (mk_report [| d "x" 1.0; d "y" 2.0 |]));
  Alcotest.(check bool) "split excused for ignored pid" true
    (Report.agreement_ok ~ignore_pids:[ 1 ] (mk_report [| d "x" 1.0; d "y" 2.0 |]));
  Alcotest.(check bool) "vacuous when nobody decides" true
    (Report.agreement_ok (mk_report [| None; None |]))

let test_validity () =
  let inputs = [| "a"; "b" |] in
  Alcotest.(check bool) "input decided" true
    (Report.validity_ok (mk_report [| d "b" 1.0; None |]) ~inputs);
  Alcotest.(check bool) "invented value flagged" false
    (Report.validity_ok (mk_report [| d "z" 1.0; None |]) ~inputs);
  Alcotest.(check bool) "invented value excused for ignored pid" true
    (Report.validity_ok ~ignore_pids:[ 0 ] (mk_report [| d "z" 1.0; None |]) ~inputs)

let test_decision_times () =
  let r = mk_report [| d "x" 5.0; d "x" 2.0; None |] in
  Alcotest.(check (option (float 0.0))) "first" (Some 2.0) (Report.first_decision_time r);
  Alcotest.(check (option (float 0.0))) "last" (Some 5.0) (Report.last_decision_time r);
  Alcotest.(check int) "count" 2 (Report.decided_count r);
  Alcotest.(check (option (float 0.0))) "no decisions" None
    (Report.first_decision_time (mk_report [| None |]))

let test_fault_pp () =
  let s = Fmt.str "%a" Fault.pp (Fault.Crash_process { pid = 2; at = 1.5 }) in
  Alcotest.(check string) "crash pp" "crash p2@1.5" s;
  let s = Fmt.str "%a" Fault.pp (Fault.Async_until { gst = 30.0; extra = 25.0 }) in
  Alcotest.(check string) "async pp" "async(+25.0)until@30.0" s

let test_memclient_quorum () =
  let engine = Engine.create () in
  let memories = Array.init 5 (fun mid -> Memory.create ~engine ~mid ()) in
  Array.iter
    (fun mem ->
      Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:2)
        ~registers:[ "x" ])
    memories;
  Memory.crash memories.(4);
  let c = Memclient.create ~pid:0 ~memories in
  Alcotest.(check int) "majority of 5" 3 (Memclient.majority c);
  let finished_at = ref nan in
  ignore
    (Engine.spawn engine "writer" (fun () ->
         let w = Memclient.write_quorum c ~region:"r" ~reg:"x" "v" in
         Alcotest.(check bool) "quorum write acks despite one crash" true
           (w = Memory.Ack);
         let reads = Memclient.read_quorum c ~region:"r" ~reg:"x" in
         Alcotest.(check bool) "read quorum reaches majority" true
           (List.length reads >= 3);
         finished_at := Engine.now engine));
  Engine.run engine;
  Alcotest.(check (float 0.0)) "two ops cost four delays" 4.0 !finished_at

let test_report_pp_smoke () =
  let r = mk_report [| d "x" 2.0; None |] in
  let s = Fmt.str "%a" Report.pp r in
  Alcotest.(check bool) "pp mentions algorithm" true
    (String.length s > 0 && String.sub s 0 4 = "test")

let test_memclient_majority () =
  let engine = Engine.create () in
  for m = 1 to 9 do
    let memories = Array.init m (fun mid -> Memory.create ~engine ~mid ()) in
    Alcotest.(check int)
      (Printf.sprintf "m = %d tolerates (m - 1) / 2 crashes" m)
      (m - ((m - 1) / 2))
      (Memclient.majority (Memclient.create ~pid:0 ~memories))
  done

(* The one decide step: the first decide fills the ivar at the current
   time and records one Decide event; a second one changes nothing. *)
let test_decide_once () =
  let engine = Engine.create () in
  let events = ref [] in
  Rdma_obs.Obs.subscribe (Engine.obs engine) (fun ~at ~actor ev ->
      match ev with
      | Rdma_obs.Event.Decide { pid; value } -> events := (at, actor, pid, value) :: !events
      | _ -> ());
  let decision = Ivar.create () in
  ignore
    (Engine.spawn engine "decider" (fun () ->
         Engine.sleep 2.0;
         Report.decide engine ~pid:1 decision "a";
         Engine.sleep 3.0;
         Report.decide engine ~pid:1 decision "b"));
  Engine.run engine;
  (match Ivar.peek decision with
  | Some { Report.value; at } ->
      Alcotest.(check string) "first value kept" "a" value;
      Alcotest.(check (float 0.0)) "first time kept" 2.0 at
  | None -> Alcotest.fail "no decision");
  match !events with
  | [ (at, actor, pid, value) ] ->
      Alcotest.(check (float 0.0)) "event time" 2.0 at;
      Alcotest.(check string) "on p1's track" "p1" actor;
      Alcotest.(check int) "event pid" 1 pid;
      Alcotest.(check string) "event value" "a" value
  | evs -> Alcotest.failf "expected one Decide event, got %d" (List.length evs)

let suite =
  [
    Alcotest.test_case "agreement checks" `Quick test_agreement;
    Alcotest.test_case "validity checks" `Quick test_validity;
    Alcotest.test_case "decision time extraction" `Quick test_decision_times;
    Alcotest.test_case "fault pretty-printing" `Quick test_fault_pp;
    Alcotest.test_case "memclient quorum helpers" `Quick test_memclient_quorum;
    Alcotest.test_case "report pretty-printing" `Quick test_report_pp_smoke;
    Alcotest.test_case "memclient majority = m - (m-1)/2" `Quick test_memclient_majority;
    Alcotest.test_case "a second decide changes nothing" `Quick test_decide_once;
  ]

(* Replicated SWMR register tests (the Section 4.1 construction):
   majority semantics under memory crashes, the exactly-one-distinct-value
   read rule, equivocation detection. *)

open Rdma_sim
open Rdma_mem
open Rdma_reg

let build ?(n = 3) ?(m = 3) () =
  let engine = Engine.create () in
  let memories =
    Array.init m (fun mid -> Memory.create ~engine ~mid ())
  in
  Array.iter
    (fun mem ->
      Memory.add_region mem ~name:"swmr.0" ~perm:(Permission.swmr ~writer:0 ~n)
        ~registers:[ "x" ])
    memories;
  (engine, memories)

let run_fiber engine f =
  ignore (Engine.spawn engine "test" f);
  Engine.run engine;
  match Engine.errors engine with
  | [] -> ()
  | (name, e) :: _ -> Alcotest.failf "fiber %s raised %s" name (Printexc.to_string e)

let handle memories pid =
  Swmr.attach ~client:(Memclient.create ~pid ~memories) ~region:"swmr.0"

let test_write_then_read () =
  let engine, memories = build () in
  run_fiber engine (fun () ->
      let w = handle memories 0 in
      let r = handle memories 1 in
      Alcotest.(check bool) "write acks" true (Swmr.write w ~reg:"x" "v" = Memory.Ack);
      Alcotest.(check (option string)) "read returns value" (Some "v")
        (Swmr.read r ~reg:"x"))

let test_read_bottom () =
  let engine, memories = build () in
  run_fiber engine (fun () ->
      let r = handle memories 1 in
      Alcotest.(check (option string)) "unwritten register reads ⊥" None
        (Swmr.read r ~reg:"x"))

let test_survives_minority_memory_crash () =
  let engine, memories = build ~m:3 () in
  Memory.crash memories.(2);
  run_fiber engine (fun () ->
      let w = handle memories 0 in
      let r = handle memories 1 in
      Alcotest.(check bool) "write completes with 2/3 memories" true
        (Swmr.write w ~reg:"x" "v" = Memory.Ack);
      Alcotest.(check (option string)) "read completes with 2/3 memories" (Some "v")
        (Swmr.read r ~reg:"x"))

let test_blocks_on_majority_crash () =
  let engine, memories = build ~m:3 () in
  Memory.crash memories.(1);
  Memory.crash memories.(2);
  let finished = ref false in
  ignore
    (Engine.spawn engine "writer" (fun () ->
         ignore (Swmr.write (handle memories 0) ~reg:"x" "v");
         finished := true));
  Engine.run engine;
  Alcotest.(check bool) "write blocks forever without a majority" false !finished

let test_equivocation_reads_bottom () =
  (* A (Byzantine) writer that plants different values on different
     replicas: readers see two distinct values and must return ⊥ — the
     memory-level equivocation defence the NEB algorithm builds on. *)
  let engine, memories = build ~m:3 () in
  run_fiber engine (fun () ->
      let plant mid v =
        ignore
          (Ivar.await
             (Memory.write_async memories.(mid) ~from:0 ~region:"swmr.0" ~reg:"x" v))
      in
      plant 0 "v1";
      plant 1 "v2";
      plant 2 "v1";
      let r = handle memories 1 in
      (* Depending on which majority answers, the read sees {v1} or
         {v1,v2}; run it a few times — it must never return v2 alone and
         the 3-response case must be ⊥. *)
      let seen = Swmr.read r ~reg:"x" in
      Alcotest.(check bool) "never the minority value alone" true (seen <> Some "v2"))

let test_write_nak_on_revoked_replica () =
  (* If some replica refuses the write (permission revoked there), the
     writer learns Nak. *)
  let engine = Engine.create () in
  let legal_change ~pid ~region:_ ~current:_ ~requested =
    Permission.sole_writer requested = Some pid
  in
  let memories = Array.init 3 (fun mid -> Memory.create ~legal_change ~engine ~mid ()) in
  Array.iter
    (fun mem ->
      Memory.add_region mem ~name:"swmr.0"
        ~perm:(Permission.exclusive_writer ~writer:0 ~n:2)
        ~registers:[ "x" ])
    memories;
  run_fiber engine (fun () ->
      (* process 1 takes over every replica *)
      let grabber = Memclient.create ~pid:1 ~memories in
      for mem = 0 to 2 do
        ignore
          (Memclient.change_permission grabber ~mem ~region:"swmr.0"
             ~perm:(Permission.exclusive_writer ~writer:1 ~n:2))
      done;
      let w = handle memories 0 in
      Alcotest.(check bool) "deposed writer sees Nak" true
        (Swmr.write w ~reg:"x" "v" = Memory.Nak))

let test_read_detailed_reports_naks () =
  let engine = Engine.create () in
  let memories = Array.init 3 (fun mid -> Memory.create ~engine ~mid ()) in
  Array.iter
    (fun mem ->
      (* region readable only by process 0 *)
      Memory.add_region mem ~name:"swmr.0"
        ~perm:(Permission.make ~readwrite:[ 0 ] ())
        ~registers:[ "x" ])
    memories;
  run_fiber engine (fun () ->
      let client = Memclient.create ~pid:1 ~memories in
      let r = Swmr.attach ~client ~region:"swmr.0" in
      Alcotest.(check (option string)) "no value" None (Swmr.read r ~reg:"x");
      let responses = Memclient.read_quorum client ~region:"swmr.0" ~reg:"x" in
      Alcotest.(check bool) "naks reported" true
        (List.exists (fun (_, res) -> res = Memory.Read_nak) responses))

let test_read_repair_converges_after_restart () =
  (* A replica crashes after the write and rejoins EMPTY: its register is
     stale and naks reads.  One read_repair sweep by the writer must
     write the majority value back so the rejoined replica is fully
     fresh and serves the value again. *)
  let engine, memories = build () in
  run_fiber engine (fun () ->
      let w = handle memories 0 in
      Alcotest.(check bool) "write acks" true (Swmr.write w ~reg:"x" "v" = Memory.Ack);
      Memory.crash memories.(1);
      Memory.restart memories.(1);
      Alcotest.(check (list string)) "rejoined replica is stale" [ "x" ]
        (Memory.stale_registers memories.(1) ~region:"swmr.0");
      Alcotest.(check (option string)) "repair read still returns the value" (Some "v")
        (Swmr.read_repair w ~reg:"x");
      Alcotest.(check (list string)) "replica repaired" []
        (Memory.stale_registers memories.(1) ~region:"swmr.0");
      Alcotest.(check (option string)) "rejoined replica serves directly" (Some "v")
        (Memory.peek_register memories.(1) "x"))

let test_read_repair_skips_crashed_replica () =
  (* A still-crashed replica never responds; the repair sweep must not
     block on it — it repairs the responders and returns. *)
  let engine, memories = build () in
  run_fiber engine (fun () ->
      let w = handle memories 0 in
      ignore (Swmr.write w ~reg:"x" "v");
      Memory.crash memories.(2);
      Alcotest.(check (option string)) "repair completes on the live majority"
        (Some "v") (Swmr.read_repair w ~reg:"x");
      (* the crashed replica is untouched; once it rejoins, a later sweep
         picks it up *)
      Memory.restart memories.(2);
      Alcotest.(check (option string)) "next sweep repairs the rejoiner" (Some "v")
        (Swmr.read_repair w ~reg:"x");
      Alcotest.(check (list string)) "rejoiner fresh" []
        (Memory.stale_registers memories.(2) ~region:"swmr.0"))

let suite =
  [
    Alcotest.test_case "write then read" `Quick test_write_then_read;
    Alcotest.test_case "unwritten reads ⊥" `Quick test_read_bottom;
    Alcotest.test_case "survives minority memory crash" `Quick
      test_survives_minority_memory_crash;
    Alcotest.test_case "blocks when majority of memories crash" `Quick
      test_blocks_on_majority_crash;
    Alcotest.test_case "equivocating writer reads as ⊥" `Quick
      test_equivocation_reads_bottom;
    Alcotest.test_case "write naks if a replica was revoked" `Quick
      test_write_nak_on_revoked_replica;
    Alcotest.test_case "read_detailed reports naks" `Quick test_read_detailed_reports_naks;
    Alcotest.test_case "read_repair converges after a restart" `Quick
      test_read_repair_converges_after_restart;
    Alcotest.test_case "read_repair skips crashed replicas" `Quick
      test_read_repair_skips_crashed_replica;
  ]

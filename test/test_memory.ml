(* RDMA memory model tests: regions, permissions, dynamic permission
   changes with legalChange, crash semantics, timing. *)

open Rdma_sim
open Rdma_mem

let make_memory ?legal_change () =
  let engine = Engine.create () in
  let mem = Memory.create ?legal_change ~engine ~mid:0 () in
  (engine, mem)

let in_fiber engine f =
  ignore (Engine.spawn engine "test" f);
  Engine.run engine;
  match Engine.errors engine with
  | [] -> ()
  | (name, e) :: _ -> Alcotest.failf "fiber %s raised %s" name (Printexc.to_string e)

let op_result = Alcotest.testable (Fmt.of_to_string (function Memory.Ack -> "ack" | Memory.Nak -> "nak")) ( = )

let read_result =
  Alcotest.testable
    (Fmt.of_to_string (function
      | Memory.Read None -> "read ⊥"
      | Memory.Read (Some v) -> "read " ^ v
      | Memory.Read_nak -> "nak"))
    ( = )

let test_write_read () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:2) ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let w = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v1") in
      Alcotest.check op_result "write acks" Memory.Ack w;
      let r = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "read sees write" (Memory.Read (Some "v1")) r)

let test_initial_bottom () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:2) ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let r = Ivar.await (Memory.read_async mem ~from:0 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "fresh register is ⊥" (Memory.Read None) r)

let test_permission_enforced () =
  let engine, mem = make_memory () in
  (* SWMR region owned by 0: 1 may read but not write. *)
  Memory.add_region mem ~name:"r" ~perm:(Permission.swmr ~writer:0 ~n:2) ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let w = Ivar.await (Memory.write_async mem ~from:1 ~region:"r" ~reg:"x" "evil") in
      Alcotest.check op_result "non-writer gets nak" Memory.Nak w;
      let r = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "register untouched" (Memory.Read None) r;
      let w0 = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "mine") in
      Alcotest.check op_result "owner writes" Memory.Ack w0)

let test_read_permission_enforced () =
  let engine, mem = make_memory () in
  (* Region readable only by 0. *)
  Memory.add_region mem ~name:"r"
    ~perm:(Permission.make ~readwrite:[ 0 ] ())
    ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let r = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "unauthorized read naks" Memory.Read_nak r)

let test_unknown_region_and_register () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:2) ~registers:[ "x" ];
  Memory.add_region mem ~name:"s" ~perm:(Permission.all_readwrite ~n:2) ~registers:[ "z" ];
  in_fiber engine (fun () ->
      let w = Ivar.await (Memory.write_async mem ~from:0 ~region:"nope" ~reg:"x" "v") in
      Alcotest.check op_result "unknown region naks" Memory.Nak w;
      let w2 = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"y" "v") in
      Alcotest.check op_result "register outside region naks" Memory.Nak w2;
      (* "z" exists, but in region "s": addressed to "r" it is outside
         the region for every operation *)
      let w3 = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"z" "v") in
      Alcotest.check op_result "another region's register: write naks" Memory.Nak w3;
      let r = Ivar.await (Memory.read_async mem ~from:0 ~region:"r" ~reg:"z") in
      Alcotest.check read_result "another region's register: read naks" Memory.Read_nak r;
      let rm = Ivar.await (Memory.read_many_async mem ~from:0 ~region:"r" ~regs:[ "x"; "z" ]) in
      Alcotest.(check bool) "another region's register: read_many naks" true
        (rm = Memory.Read_many_nak);
      let wm =
        Ivar.await
          (Memory.write_many_async mem ~from:0 ~region:"r"
             ~values:[ ("x", Some "v"); ("z", Some "v") ])
      in
      Alcotest.check op_result "another region's register: write_many naks" Memory.Nak wm;
      Alcotest.(check (option string)) "nothing was written" None (Memory.peek_register mem "z");
      Alcotest.(check (option string)) "not even the batch's own register" None
        (Memory.peek_register mem "x"))

let test_static_permissions_refuse_change () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.swmr ~writer:0 ~n:2) ~registers:[ "x" ];
  in_fiber engine (fun () ->
      let c =
        Ivar.await
          (Memory.change_permission_async mem ~from:1 ~region:"r"
             ~perm:(Permission.all_readwrite ~n:2))
      in
      Alcotest.check op_result "static legalChange refuses" Memory.Nak c;
      match Memory.region_perm mem "r" with
      | Some p ->
          Alcotest.(check bool) "permission unchanged" true
            (Permission.equal p (Permission.swmr ~writer:0 ~n:2))
      | None -> Alcotest.fail "region vanished")

let test_dynamic_permission_change () =
  let legal_change ~pid ~region:_ ~current:_ ~requested =
    (* anyone may take exclusive writership for themselves *)
    Permission.sole_writer requested = Some pid
  in
  let engine, mem = make_memory ~legal_change () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.exclusive_writer ~writer:0 ~n:3)
    ~registers:[ "x" ];
  in_fiber engine (fun () ->
      (* 1 takes over; 0's subsequent write must nak. *)
      let c =
        Ivar.await
          (Memory.change_permission_async mem ~from:1 ~region:"r"
             ~perm:(Permission.exclusive_writer ~writer:1 ~n:3))
      in
      Alcotest.check op_result "legal takeover applied" Memory.Ack c;
      let w = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "old") in
      Alcotest.check op_result "deposed writer naks" Memory.Nak w;
      let w1 = Ivar.await (Memory.write_async mem ~from:1 ~region:"r" ~reg:"x" "new") in
      Alcotest.check op_result "new owner writes" Memory.Ack w1;
      (* illegal shape (grabbing for someone else) is refused *)
      let c2 =
        Ivar.await
          (Memory.change_permission_async mem ~from:2 ~region:"r"
             ~perm:(Permission.exclusive_writer ~writer:1 ~n:3))
      in
      Alcotest.check op_result "illegal change refused" Memory.Nak c2)

let test_revocation_race () =
  (* The uncontended-instantaneous guarantee: a write that arrives after a
     revocation naks, even if issued before it. *)
  let legal_change ~pid ~region:_ ~current:_ ~requested =
    Permission.sole_writer requested = Some pid
  in
  let engine, mem = make_memory ~legal_change () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.exclusive_writer ~writer:0 ~n:2)
    ~registers:[ "x" ];
  let write_result = ref None in
  ignore
    (Engine.spawn engine "writer" (fun () ->
         (* issue at t=0.5; arrives at memory at t=1.5, after the takeover
            below lands at t=1.25 *)
         Engine.sleep 0.5;
         write_result :=
           Some (Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v"))));
  ignore
    (Engine.spawn engine "grabber" (fun () ->
         Engine.sleep 0.25;
         ignore
           (Ivar.await
              (Memory.change_permission_async mem ~from:1 ~region:"r"
                 ~perm:(Permission.exclusive_writer ~writer:1 ~n:2)))));
  Engine.run engine;
  Alcotest.(check bool) "write overtaken by revocation naks" true
    (!write_result = Some Memory.Nak)

let test_crash_hangs_operations () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:1) ~registers:[ "x" ];
  let got = ref (Some Memory.Ack) in
  ignore
    (Engine.spawn engine "writer" (fun () ->
         Memory.crash mem;
         got := Ivar.await_timeout (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v") 50.0));
  Engine.run engine;
  Alcotest.(check bool) "operation on crashed memory hangs" true (!got = None)

let test_crash_mid_flight () =
  (* Crash after the request leg but before the response leg: the write
     may have applied, but the caller never hears back. *)
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:1) ~registers:[ "x" ];
  let got = ref (Some Memory.Ack) in
  ignore
    (Engine.spawn engine "writer" (fun () ->
         let iv = Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v" in
         got := Ivar.await_timeout iv 50.0));
  Engine.schedule engine 1.5 (fun () -> Memory.crash mem);
  Engine.run engine;
  Alcotest.(check bool) "no response after crash" true (!got = None);
  Alcotest.(check (option string)) "write applied before crash" (Some "v")
    (Memory.peek_register mem "x")

let test_operation_timing () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:1) ~registers:[ "x" ];
  let at = ref 0.0 in
  ignore
    (Engine.spawn engine "writer" (fun () ->
         ignore (Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v"));
         at := Engine.now engine));
  Engine.run engine;
  Alcotest.(check (float 0.0)) "a memory operation costs two delays" 2.0 !at

let test_duplicate_register_rejected () =
  let _, mem = make_memory () in
  Memory.add_region mem ~name:"r1" ~perm:(Permission.all_readwrite ~n:1) ~registers:[ "x" ];
  Alcotest.(check bool) "register cannot join two regions" true
    (try
       Memory.add_region mem ~name:"r2" ~perm:(Permission.all_readwrite ~n:1)
         ~registers:[ "x" ];
       false
     with Invalid_argument _ -> true)

let test_restart_wipes_and_stamps () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:2)
    ~registers:[ "x"; "y" ];
  in_fiber engine (fun () ->
      ignore (Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v1"));
      Memory.crash mem;
      Alcotest.(check bool) "crashed" true (Memory.is_crashed mem);
      Memory.restart mem;
      Alcotest.(check bool) "back up" false (Memory.is_crashed mem);
      Alcotest.(check int) "epoch bumped" 1 (Memory.epoch mem);
      Alcotest.(check (option string)) "value lost" None (Memory.peek_register mem "x");
      Alcotest.(check (list string)) "every register stale" [ "x"; "y" ]
        (Memory.stale_registers mem ~region:"r");
      (* lost state answers "I don't know", never ⊥ — the reader must not
         mistake amnesia for a genuinely unwritten register *)
      let r = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "stale read naks" Memory.Read_nak r;
      (* a current-epoch write repairs the register *)
      ignore (Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v2"));
      Alcotest.(check (list string)) "x repaired, y still stale" [ "y" ]
        (Memory.stale_registers mem ~region:"r");
      let r2 = Ivar.await (Memory.read_async mem ~from:1 ~region:"r" ~reg:"x") in
      Alcotest.check read_result "repaired register serves" (Memory.Read (Some "v2")) r2)

let test_restart_write_many_repairs () =
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:1)
    ~registers:[ "a"; "b"; "c" ];
  in_fiber engine (fun () ->
      Memory.crash mem;
      Memory.restart mem;
      (* state transfer: one batched write stamps every named register,
         ⊥ included — a write of zeroes is still a repair *)
      let w =
        Ivar.await
          (Memory.write_many_async mem ~from:0 ~region:"r"
             ~values:[ ("a", Some "1"); ("b", None) ])
      in
      Alcotest.check op_result "snapshot install acks" Memory.Ack w;
      Alcotest.(check (list string)) "only c still stale" [ "c" ]
        (Memory.stale_registers mem ~region:"r");
      let rm = Ivar.await (Memory.read_many_async mem ~from:0 ~region:"r" ~regs:[ "a"; "b" ]) in
      (match rm with
      | Memory.Read_many vs ->
          Alcotest.(check (array (option string))) "batch serves the snapshot"
            [| Some "1"; None |] vs
      | Memory.Read_many_nak -> Alcotest.fail "repaired batch must serve");
      (* any batch touching a stale register naks whole *)
      let rm2 = Ivar.await (Memory.read_many_async mem ~from:0 ~region:"r" ~regs:[ "a"; "c" ]) in
      Alcotest.(check bool) "batch with a stale member naks" true
        (rm2 = Memory.Read_many_nak))

let test_restart_genesis () =
  let legal_change ~pid ~region:_ ~current:_ ~requested =
    Permission.sole_writer requested = Some pid
  in
  let engine, mem = make_memory ~legal_change () in
  let genesis = Permission.exclusive_writer ~writer:0 ~n:2 in
  Memory.add_region mem ~name:"r" ~perm:genesis ~registers:[ "x" ];
  in_fiber engine (fun () ->
      (* a legalChange-granted takeover is forgotten by the restart *)
      let c =
        Ivar.await
          (Memory.change_permission_async mem ~from:1 ~region:"r"
             ~perm:(Permission.exclusive_writer ~writer:1 ~n:2))
      in
      Alcotest.check op_result "takeover acks" Memory.Ack c;
      (* the restart restores the creation-time owner *)
      Memory.crash mem;
      Memory.restart mem;
      Alcotest.(check bool) "genesis rejoin restores the creation-time permission"
        true
        (Option.equal Permission.equal (Some genesis) (Memory.region_perm mem "r"));
      let w0 = Ivar.await (Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v0") in
      Alcotest.check op_result "creation-time owner writes" Memory.Ack w0;
      let w1 = Ivar.await (Memory.write_async mem ~from:1 ~region:"r" ~reg:"x" "v1") in
      Alcotest.check op_result "pre-crash takeover forgotten" Memory.Nak w1)

let test_restart_drops_in_flight () =
  (* The epoch fence: an operation issued before the crash never gets a
     response, even if the memory restarts while it would be in flight. *)
  let engine, mem = make_memory () in
  Memory.add_region mem ~name:"r" ~perm:(Permission.all_readwrite ~n:1) ~registers:[ "x" ];
  let got = ref (Some Memory.Ack) in
  ignore
    (Engine.spawn engine "writer" (fun () ->
         let iv = Memory.write_async mem ~from:0 ~region:"r" ~reg:"x" "v" in
         got := Ivar.await_timeout iv 50.0));
  Engine.schedule engine 0.5 (fun () -> Memory.crash mem);
  Engine.schedule engine 1.0 (fun () -> Memory.restart mem);
  Engine.run engine;
  Alcotest.(check bool) "pre-crash op stays dropped across the restart" true
    (!got = None);
  Alcotest.(check (option string)) "and its write never applies" None
    (Memory.peek_register mem "x")

let test_restart_requires_crash () =
  let _, mem = make_memory () in
  Alcotest.(check bool) "restarting a live memory is a harness bug" true
    (try
       Memory.restart mem;
       false
     with Invalid_argument _ -> true)

let test_permission_disjointness () =
  Alcotest.(check bool) "overlapping sets rejected" true
    (try
       ignore (Permission.make ~read:[ 0 ] ~readwrite:[ 0 ] ());
       false
     with Invalid_argument _ -> true)

(* {2 Family regions}

   A region declared by a membership test ([add_region_family]) must
   answer every operation and inspection exactly as the same names
   declared as a list.  Both layouts run one random sequence of
   operations — members, a name in no region and another region's
   registers, under every region name — with crash-and-restarts
   between operations and before the regions are added (so the
   region's creation epoch is not always 0). *)

type fam_op =
  | Write of int * string * string * string (* from, region, reg, value *)
  | Read of int * string * string
  | Read_many of int * string * string list
  | Write_many of int * string * (string * string option) list
  | Take of int * string (* from takes sole writership of region *)
  | Crash_restart

let fam_members = [ "a0"; "a1"; "a2"; "a3" ]

(* "a4" is in no region; "b0" and "b1" are the listed region "g"'s *)
let fam_names = fam_members @ [ "a4"; "b0"; "b1" ]

let show_fam_op = function
  | Write (f, r, g, v) -> Printf.sprintf "write p%d %s/%s %s" f r g v
  | Read (f, r, g) -> Printf.sprintf "read p%d %s/%s" f r g
  | Read_many (f, r, gs) -> Printf.sprintf "read_many p%d %s/[%s]" f r (String.concat ";" gs)
  | Write_many (f, r, vs) ->
      Printf.sprintf "write_many p%d %s/[%s]" f r
        (String.concat ";"
           (List.map (fun (g, v) -> g ^ "=" ^ Option.value v ~default:"⊥") vs))
  | Take (f, r) -> Printf.sprintf "take p%d %s" f r
  | Crash_restart -> "crash+restart"

let fam_op_gen =
  QCheck2.Gen.(
    let from = 0 -- 1
    and region = oneofl [ "f"; "g"; "nope" ]
    and reg = oneofl fam_names
    and value = map (Printf.sprintf "v%d") (0 -- 9) in
    frequency
      [
        (4, map4 (fun f r g v -> Write (f, r, g, v)) from region reg value);
        (4, map3 (fun f r g -> Read (f, r, g)) from region reg);
        (2, map3 (fun f r gs -> Read_many (f, r, gs)) from region (list_size (0 -- 3) reg));
        ( 2,
          map3
            (fun f r vs -> Write_many (f, r, vs))
            from region
            (list_size (0 -- 3) (pair reg (option value))) );
        (1, map2 (fun f r -> Take (f, r)) from region);
        (1, return Crash_restart);
      ])

(* One step on [mem], then everything an observer can read of it: the
   step's result, each region's stale registers and permission, and
   every name's value. *)
let fam_step mem op =
  let show_ack = function Memory.Ack -> "ack" | Memory.Nak -> "nak" in
  let show_opt = Option.value ~default:"⊥" in
  let result =
    match op with
    | Write (from, region, reg, v) ->
        show_ack (Ivar.await (Memory.write_async mem ~from ~region ~reg v))
    | Read (from, region, reg) -> (
        match Ivar.await (Memory.read_async mem ~from ~region ~reg) with
        | Memory.Read v -> show_opt v
        | Memory.Read_nak -> "nak")
    | Read_many (from, region, regs) -> (
        match Ivar.await (Memory.read_many_async mem ~from ~region ~regs) with
        | Memory.Read_many vs -> String.concat "," (Array.to_list (Array.map show_opt vs))
        | Memory.Read_many_nak -> "nak")
    | Write_many (from, region, values) ->
        show_ack (Ivar.await (Memory.write_many_async mem ~from ~region ~values))
    | Take (from, region) ->
        show_ack
          (Ivar.await
             (Memory.change_permission_async mem ~from ~region
                ~perm:(Permission.exclusive_writer ~writer:from ~n:2)))
    | Crash_restart ->
        Memory.crash mem;
        Memory.restart mem;
        "restarted"
  in
  let perm r =
    Option.fold ~none:"none" ~some:(Fmt.to_to_string Permission.pp) (Memory.region_perm mem r)
  in
  String.concat " | "
    [
      result;
      String.concat "," (Memory.stale_registers mem ~region:"f");
      String.concat "," (Memory.stale_registers mem ~region:"g");
      perm "f";
      perm "g";
      String.concat "," (List.map (fun r -> show_opt (Memory.peek_register mem r)) fam_names);
    ]

let fam_run ~family ~restarts ops =
  let legal_change ~pid ~region:_ ~current:_ ~requested =
    Permission.sole_writer requested = Some pid
  in
  let engine, mem = make_memory ~legal_change () in
  for _ = 1 to restarts do
    Memory.crash mem;
    Memory.restart mem
  done;
  let perm = Permission.exclusive_writer ~writer:0 ~n:2 in
  if family then
    Memory.add_region_family mem ~name:"f" ~perm
      ~member:(fun r -> List.mem r fam_members)
      ~registers:(lazy fam_members)
  else Memory.add_region mem ~name:"f" ~perm ~registers:fam_members;
  Memory.add_region mem ~name:"g" ~perm:(Permission.all_readwrite ~n:2)
    ~registers:[ "b0"; "b1" ];
  let log = ref [] in
  in_fiber engine (fun () -> List.iter (fun op -> log := fam_step mem op :: !log) ops);
  List.rev !log

let family_matches_listed =
  QCheck2.Test.make ~name:"memory: a family region answers as its listed twin"
    ~count:300
    ~print:(fun (restarts, ops) ->
      Printf.sprintf "%d restarts first; %s" restarts
        (String.concat "; " (List.map show_fam_op ops)))
    QCheck2.Gen.(pair (0 -- 2) (list_size (0 -- 40) fam_op_gen))
    (fun (restarts, ops) ->
      let listed = fam_run ~family:false ~restarts ops in
      let family = fam_run ~family:true ~restarts ops in
      if listed = family then true
      else
        QCheck2.Test.fail_reportf "listed:@.%s@.family:@.%s" (String.concat "\n" listed)
          (String.concat "\n" family))

let test_family_unwritten_after_restart () =
  (* A member first named after a restart reads as a listed register
     never written: stale (nak) in the new epoch, until a write repairs
     it; the region's enumeration lists it as stale meanwhile. *)
  let engine, mem = make_memory () in
  Memory.add_region_family mem ~name:"f" ~perm:(Permission.all_readwrite ~n:1)
    ~member:(fun r -> r = "x" || r = "y")
    ~registers:(lazy [ "y"; "x" ]);
  in_fiber engine (fun () ->
      let r = Ivar.await (Memory.read_async mem ~from:0 ~region:"f" ~reg:"x") in
      Alcotest.check read_result "a member reads ⊥ in its creation epoch" (Memory.Read None) r;
      Alcotest.(check (list string)) "nothing stale" [] (Memory.stale_registers mem ~region:"f");
      Memory.crash mem;
      Memory.restart mem;
      Alcotest.(check (list string)) "both members stale, sorted" [ "x"; "y" ]
        (Memory.stale_registers mem ~region:"f");
      let r = Ivar.await (Memory.read_async mem ~from:0 ~region:"f" ~reg:"y") in
      Alcotest.check read_result "an untouched member naks after the restart" Memory.Read_nak r;
      let w = Ivar.await (Memory.write_async mem ~from:0 ~region:"f" ~reg:"y" "v") in
      Alcotest.check op_result "a write repairs it" Memory.Ack w;
      Alcotest.(check (list string)) "only x still stale" [ "x" ]
        (Memory.stale_registers mem ~region:"f");
      let w = Ivar.await (Memory.write_async mem ~from:0 ~region:"f" ~reg:"z" "v") in
      Alcotest.check op_result "a non-member naks" Memory.Nak w)

let suite =
  [
    Alcotest.test_case "write then read" `Quick test_write_read;
    Alcotest.test_case "fresh registers read ⊥" `Quick test_initial_bottom;
    Alcotest.test_case "write permission enforced" `Quick test_permission_enforced;
    Alcotest.test_case "read permission enforced" `Quick test_read_permission_enforced;
    Alcotest.test_case "unknown region/register naks" `Quick
      test_unknown_region_and_register;
    Alcotest.test_case "static permissions refuse changes" `Quick
      test_static_permissions_refuse_change;
    Alcotest.test_case "dynamic permission takeover" `Quick test_dynamic_permission_change;
    Alcotest.test_case "revocation beats in-flight write" `Quick test_revocation_race;
    Alcotest.test_case "crashed memory hangs operations" `Quick test_crash_hangs_operations;
    Alcotest.test_case "crash between apply and response" `Quick test_crash_mid_flight;
    Alcotest.test_case "memory op costs two delays" `Quick test_operation_timing;
    Alcotest.test_case "register in one region only" `Quick test_duplicate_register_rejected;
    Alcotest.test_case "restart wipes values under a fresh epoch" `Quick
      test_restart_wipes_and_stamps;
    Alcotest.test_case "write_many is the state-transfer primitive" `Quick
      test_restart_write_many_repairs;
    Alcotest.test_case "genesis rejoin" `Quick test_restart_genesis;
    Alcotest.test_case "restart drops in-flight operations" `Quick
      test_restart_drops_in_flight;
    Alcotest.test_case "restart requires a crash" `Quick test_restart_requires_crash;
    Alcotest.test_case "permission sets must be disjoint" `Quick
      test_permission_disjointness;
    QCheck_alcotest.to_alcotest family_matches_listed;
    Alcotest.test_case "family member first named after a restart" `Quick
      test_family_unwritten_after_restart;
  ]

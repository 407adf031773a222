(* A Byzantine-tolerant bank ledger on the BFT log.

   Three bank replicas (one of which may be arbitrarily malicious) and
   three RDMA memories order transfers through the Byzantine-tolerant
   log: each slot is a full Fast & Robust instance, so the ledger
   inherits the paper's bounds — n ≥ 2fP + 1 replicas, m ≥ 2fM + 1
   memories, and 2-delay appends in the common case.

   Act 1: the honest leader orders three transfers at two delays each.
   Act 2: the leader turns Byzantine (silent); the surviving replicas
   still agree on every slot through the backup path, and the final
   balances match on all correct replicas.

     dune exec examples/bft_ledger.exe *)

open Rdma_consensus
open Rdma_smr

let parse_transfer cmd =
  match Codec.split cmd with
  | Some [ "xfer"; src; dst; amount ] -> (
      match int_of_string_opt amount with
      | Some a -> Some (src, dst, a)
      | None -> None)
  | _ -> None

let transfer ~src ~dst ~amount = Codec.join [ "xfer"; src; dst; string_of_int amount ]

let apply_ledger balances cmd =
  match parse_transfer cmd with
  | Some (src, dst, amount) ->
      let get k = Option.value (Hashtbl.find_opt balances k) ~default:100 in
      Hashtbl.replace balances src (get src - amount);
      Hashtbl.replace balances dst (get dst + amount)
  | None -> ()

let show_balances title reports =
  let balances = Hashtbl.create 8 in
  Array.iter
    (fun report ->
      match Report.decision_value report with
      | Some cmd -> apply_ledger balances cmd
      | None -> ())
    reports;
  Fmt.pr "%s@." title;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) balances []
  |> List.sort compare
  |> List.iter (fun (k, v) -> Fmt.pr "    %-8s %d@." k v)

let () =
  let n = 3 and m = 3 in
  Fmt.pr "=== Act 1: honest leader orders transfers ===@.";
  let transfers =
    [| transfer ~src:"alice" ~dst:"bob" ~amount:30;
       transfer ~src:"bob" ~dst:"carol" ~amount:10;
       transfer ~src:"carol" ~dst:"alice" ~amount:5 |]
  in
  let cfg = { Bft_log.default_config with slots = Array.length transfers } in
  let reports, _ =
    Bft_log.run ~cfg ~n ~m ~input_for:(fun ~pid:_ ~slot -> transfers.(slot)) ()
  in
  Array.iteri
    (fun i report ->
      Fmt.pr "  slot %d: %S ordered at %.1f delays (agreement %b)@." i
        (Option.value (Report.decision_value report) ~default:"-")
        (Option.value (Report.first_decision_time report) ~default:nan)
        (Report.agreement_ok report))
    reports;
  show_balances "  balances (all replicas identical):" reports;

  Fmt.pr "@.=== Act 2: the leader replica turns Byzantine (silent) ===@.";
  let base =
    { Fast_robust.default_config with
      cheap_quorum = { Cheap_quorum.default_config with fast_timeout = 30.0 } }
  in
  let cfg = { Bft_log.slots = 2; base } in
  let honest_transfers ~pid ~slot =
    transfer ~src:"mallory" ~dst:(Printf.sprintf "r%d" pid) ~amount:(10 + slot)
  in
  let byzantine = [ (0, fun _ -> ()) ] in
  let faults = [ Fault.Set_leader { pid = 1; at = 0.0 } ] in
  let reports, byz =
    Bft_log.run ~cfg ~n ~m ~input_for:honest_transfers ~byzantine ~faults ()
  in
  Array.iteri
    (fun i report ->
      Fmt.pr "  slot %d: %S via the backup path at %.1f delays (agreement %b)@." i
        (Option.value (Report.decision_value report) ~default:"-")
        (Option.value (Report.first_decision_time report) ~default:nan)
        (Report.agreement_ok ~ignore_pids:byz report))
    reports;
  show_balances "  balances on the correct replicas:" reports;
  Fmt.pr
    "@.The malicious replica could delay the ledger but could not fork it,@.\
     forge a transfer, or double-spend: every slot is protected by the@.\
     paper's n >= 2f+1 weak Byzantine agreement.@."

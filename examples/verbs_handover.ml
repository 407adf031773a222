(* Section 7, "RDMA in practice", executed literally.

   The paper sketches how the crash-consensus permission discipline maps
   onto real RDMA verbs:

     "A proposer requests write permission using an RDMA message send.
      In response, the acceptor first deregisters write permission for
      the immediate previous proposer.  The acceptor thereafter
      registers the slot array in write mode and responds to the
      proposer with the new key associated with the newly registered
      slot array. ...  The RDMA write fails if the acceptor granted
      write permission to another proposer in the meantime."

   This example builds exactly that out of the Verbs facade: an acceptor
   process owns a NIC and serves permission requests over the network;
   two proposers race; the deposed proposer's stale-rkey write naks —
   the uncontended-instantaneous guarantee, at the verbs level.

     dune exec examples/verbs_handover.exe *)

open Rdma_sim
open Rdma_mem
open Rdma_net

let acceptor_pid = 2

let () =
  let engine = Engine.create () in
  (* the acceptor's host memory, exposed through its NIC *)
  let memory = Memory.create ~engine ~mid:0 () in
  let nic = Verbs.nic memory in
  let pd = Verbs.alloc_pd nic in
  let net : string Network.t = Network.create ~engine ~n:3 () in
  let qps = Array.init 3 (fun remote -> Verbs.create_qp pd ~remote) in

  (* The acceptor: registers the slot array writable by proposer 0
     initially, then serves "may I write?" requests by re-registering. *)
  let current_mr =
    ref
      (Verbs.reg_mr pd ~name:"slots" ~registers:[ "slot" ] ~access:Verbs.Remote_write
         ~grantees:[ 0 ])
  in
  ignore
    (Engine.spawn engine "acceptor" (fun () ->
         let ep = Network.endpoint net acceptor_pid in
         (* initial grant to proposer 0 *)
         Network.send ep ~dst:0 (Verbs.rkey !current_mr);
         let continue = ref true in
         while !continue do
           match Network.recv_timeout ep 60.0 with
           | Some (proposer, "reqperm") ->
               Fmt.pr "  [%.1f] acceptor: dereg previous writer, reregister for p%d@."
                 (Engine.now engine) proposer;
               current_mr :=
                 Verbs.rereg_mr !current_mr ~access:Verbs.Remote_write
                   ~grantees:[ proposer ];
               Network.send ep ~dst:proposer (Verbs.rkey !current_mr)
           | Some _ -> ()
           | None -> continue := false
         done));

  (* A proposer: obtain an rkey (p0 gets one unsolicited; p1 asks),
     write, and report.  p0 then tries to write AGAIN with its stale key
     after p1 has taken over. *)
  let proposer pid ~ask_first ~value ~second_write_after =
    ignore
      (Engine.spawn engine
         (Printf.sprintf "proposer%d" pid)
         (fun () ->
           let ep = Network.endpoint net pid in
           if ask_first then Network.send ep ~dst:acceptor_pid "reqperm";
           match Network.recv_timeout ep 30.0 with
           | Some (_, rkey) -> (
               let w =
                 Ivar.await (Verbs.rdma_write qps.(pid) !current_mr ~rkey ~reg:"slot" value)
               in
               Fmt.pr "  [%.1f] p%d writes %S with its rkey -> %s@."
                 (Engine.now engine) pid value
                 (if w = Memory.Ack then "ack" else "NAK");
               match second_write_after with
               | None -> ()
               | Some delay -> (
                   Engine.sleep delay;
                   let w2 =
                     Ivar.await
                       (Verbs.rdma_write qps.(pid) !current_mr ~rkey ~reg:"slot"
                          (value ^ "-stale"))
                   in
                   Fmt.pr
                     "  [%.1f] p%d retries with the SAME rkey after the hand-over -> %s@."
                     (Engine.now engine) pid
                     (if w2 = Memory.Ack then "ack (BAD!)" else "NAK (deposed, as the paper says)");
                   match Memory.peek_register memory "slot" with
                   | Some v -> Fmt.pr "  final slot content: %S@." v
                   | None -> ()))
           | None -> Fmt.pr "  p%d never got an rkey@." pid))
  in
  Fmt.pr "=== Section 7: rkey hand-over between proposers ===@.";
  proposer 0 ~ask_first:false ~value:"proposal-A" ~second_write_after:(Some 12.0);
  ignore
    (Engine.spawn engine "starter1" (fun () ->
         Engine.sleep 6.0;
         proposer 1 ~ask_first:true ~value:"proposal-B" ~second_write_after:None));
  Engine.run engine;
  (match Engine.errors engine with
  | [] -> ()
  | (name, e) :: _ -> Fmt.epr "fiber %s raised %s@." name (Printexc.to_string e));
  Fmt.pr
    "@.The stale write failed at the NIC: proposer 0 learned it was deposed@.\
     from the write itself, with no extra read round — the verbs-level@.\
     mechanism behind Protected Memory Paxos's two-delay decisions.@."

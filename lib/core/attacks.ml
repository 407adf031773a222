(* A library of Byzantine behaviours.

   Each attack is an ordinary process program: it receives the same
   capability bundle as an honest process — its own signer, its own
   memory client, its own network endpoint — and nothing else.  It can
   write garbage, equivocate, replay, and lie, but it cannot forge
   signatures, spoof senders, or bypass memory permissions.  Tests and
   examples run these against the algorithms to check containment. *)

open Rdma_sim
open Rdma_mem
open Rdma_mm
open Rdma_crypto

(* {2 Attacks on non-equivocating broadcast} *)

(* Write a signed (k, m1) into our NEB slot, then overwrite it with a
   signed (k, m2): readers that copied m1 and readers that see m2 expose
   the conflict during cross-checking, so nobody delivers. *)
let neb_overwrite_equivocation ~m1 ~m2 (ctx : _ Cluster.ctx) =
  let me = ctx.Cluster.pid in
  let own = Rdma_reg.Swmr.attach ~client:ctx.Cluster.client ~region:(Neb.region_of me) in
  let slot = Neb.slot_reg ~owner:me ~k:1 ~src:me in
  let signed m =
    Neb.encode_slot ~k:1 ~msg:m
      ~signature:(Keychain.sign ctx.Cluster.signer (Neb.slot_payload ~k:1 m))
  in
  ignore (Rdma_reg.Swmr.write own ~reg:slot (signed m1));
  Engine.sleep 8.0;
  ignore (Rdma_reg.Swmr.write own ~reg:slot (signed m2))

(* Plant different signed values on different memory replicas of the same
   slot — memory-level equivocation, defeated by the Swmr read rule. *)
let neb_replica_equivocation ~m1 ~m2 (ctx : _ Cluster.ctx) =
  let me = ctx.Cluster.pid in
  let slot = Neb.slot_reg ~owner:me ~k:1 ~src:me in
  let signed m =
    Neb.encode_slot ~k:1 ~msg:m
      ~signature:(Keychain.sign ctx.Cluster.signer (Neb.slot_payload ~k:1 m))
  in
  let client = ctx.Cluster.client in
  for i = 0 to Memclient.memory_count client - 1 do
    let v = if i mod 2 = 0 then signed m1 else signed m2 in
    ignore (Memclient.write client ~mem:i ~region:(Neb.region_of me) ~reg:slot v)
  done

(* {2 Attacks on Cheap Quorum} *)

(* A Byzantine leader that writes *different signed values* to different
   memory replicas of the leader region.  Followers' majority reads see
   two distinct values and return ⊥, so they time out and panic. *)
let cq_equivocating_leader ~v1 ~v2 (ctx : _ Cluster.ctx) =
  let sign v = Keychain.sign ctx.Cluster.signer (Cheap_quorum.value_payload v) in
  let client = ctx.Cluster.client in
  for i = 0 to Memclient.memory_count client - 1 do
    let v = if i mod 2 = 0 then v1 else v2 in
    ignore
      (Memclient.write client ~mem:i ~region:Cheap_quorum.leader_region
         ~reg:Cheap_quorum.leader_value_reg
         (Cheap_quorum.encode_leader_value ~value:v ~sig_l:(sign v)))
  done

(* A leader that proposes nothing: followers time out and panic. *)
let cq_silent_leader (_ctx : _ Cluster.ctx) = ()

(* A leader that writes an unsigned (forged) proposal. *)
let cq_forging_leader ~value (ctx : _ Cluster.ctx) =
  let client = ctx.Cluster.client in
  let forged = Keychain.forge ~author:Cheap_quorum.leader (Cheap_quorum.value_payload value) in
  for i = 0 to Memclient.memory_count client - 1 do
    ignore
      (Memclient.write client ~mem:i ~region:Cheap_quorum.leader_region
         ~reg:Cheap_quorum.leader_value_reg
         (Cheap_quorum.encode_leader_value ~value ~sig_l:forged))
  done

(* A follower that immediately revokes the leader's write permission —
   the only permission change legalChange admits — before the leader's
   proposal lands, forcing the leader's write to nak. *)
let cq_early_revoker (ctx : _ Cluster.ctx) =
  let n = ctx.Cluster.cluster_n in
  let lregion =
    Rdma_reg.Swmr.attach ~client:ctx.Cluster.client ~region:Cheap_quorum.leader_region
  in
  Rdma_reg.Swmr.change_permission lregion ~perm:(Permission.read_all ~n)

(* A follower that tries to *steal* the leader region — requesting write
   permission for itself, which legalChange must refuse. *)
let cq_permission_thief ~then_ (ctx : _ Cluster.ctx) =
  let n = ctx.Cluster.cluster_n in
  let client = ctx.Cluster.client in
  for i = 0 to Memclient.memory_count client - 1 do
    ignore
      (Memclient.change_permission client ~mem:i ~region:Cheap_quorum.leader_region
         ~perm:(Permission.exclusive_writer ~writer:ctx.Cluster.pid ~n))
  done;
  then_ ctx

(* {2 Attacks on Preferential Paxos / Robust Backup} *)

(* Join Preferential Paxos claiming top (T) priority with fabricated
   evidence: the verified classifier must demote it to B. *)
let pp_priority_liar ~value (ctx : _ Cluster.ctx) =
  let transport = Robust_backup.make_channel ctx () in
  Robust_backup.T_transport.broadcast transport
    (Preferential_paxos.encode_setup ~value ~evidence:(Codec.join2 "T" "garbage-proof"))

(* Over the trusted layer, send a Promise citing an accepted value the
   history cannot justify: the Paxos replay validator must reject it and
   convict us at every correct receiver. *)
let rb_fabricated_promise ~ballot ~value (ctx : _ Cluster.ctx) =
  let transport = Robust_backup.make_channel ctx () in
  Robust_backup.T_transport.send transport ~dst:0
    (Paxos.encode
       (Paxos.Promise { ballot; accepted_ballot = 1; accepted_value = value }))

(* Send a Decide for an arbitrary value with no quorum behind it. *)
let rb_spurious_decide ~value (ctx : _ Cluster.ctx) =
  let transport = Robust_backup.make_channel ctx () in
  Robust_backup.T_transport.broadcast transport (Paxos.encode (Paxos.Decide { value }))

(* Send an Accept without ever preparing or gathering promises: the
   replay validator must reject it (no Sent Prepare, no promise
   quorum). *)
let rb_unjustified_accept ~ballot ~value (ctx : _ Cluster.ctx) =
  let transport = Robust_backup.make_channel ctx () in
  Robust_backup.T_transport.broadcast transport
    (Paxos.encode (Paxos.Accept { ballot; value }))

(* Behave correctly long enough to receive a Prepare, then answer it with
   TWO different promises for the same ballot — the replay catches the
   second (its ballot is no longer above the replayed minProposal). *)
let rb_double_promise (ctx : _ Cluster.ctx) =
  let box = Rdma_sim.Mailbox.create () in
  let transport =
    Robust_backup.make_channel ctx
      ~route:(fun ~src ~msg ->
        match Paxos.decode msg with
        | Some (Paxos.Prepare { ballot }) ->
            Rdma_sim.Mailbox.send box (src, ballot);
            true
        | Some
            ( Paxos.Promise _ | Paxos.Reject _ | Paxos.Accept _
            | Paxos.Accepted _ | Paxos.Decide _ )
        | None ->
            false)
      ()
  in
  let src, ballot = Rdma_sim.Mailbox.recv box in
  let promise accepted_value =
    Robust_backup.T_transport.send transport ~dst:src
      (Paxos.encode
         (Paxos.Promise { ballot; accepted_ballot = 0; accepted_value }))
  in
  promise "";
  promise "second-opinion"

(* Aligned Paxos (Section 5.2, Algorithms 9–15).

   Processes and memories are *equivalent agents*: consensus survives as
   long as a majority of the n + m agents survive — any mix of process
   and memory crashes.  The algorithm aligns message-passing Paxos (for
   process agents) with memory Paxos (for memory agents): each phase
   communicates with every agent, hears back, and analyzes once a
   majority of the combined agent set has responded.

   Memory agents come in two flavours (the paper's footnote 4):
   - [`Permissions`]: Protected-Memory-Paxos style — acquire the
     exclusive write permission, and let phase-2 write success certify
     the absence of rivals;
   - [`Disk`]: Disk-Paxos style — static all-readwrite permissions, with
     a read-back after the phase-2 write instead.  Permissions are then
     not needed at all, at the cost of two extra delays.

   Process agents run a standard Paxos acceptor (we reuse the Paxos
   message codec). *)

open Rdma_sim
open Rdma_mem
open Rdma_mm
open Rdma_net
open Rdma_obs

let region = "aligned"

let slot_reg q = Printf.sprintf "slot.%d" q

let encode_slot ~min_prop ~acc_prop ~value =
  Codec.join3 (Codec.int_field min_prop) (Codec.int_field acc_prop) value

let decode_slot s =
  match Codec.split3 s with
  | None -> None
  | Some (mp, ap, v) -> (
      match (Codec.int_of_field mp, Codec.int_of_field ap) with
      | Some min_prop, Some acc_prop -> Some (min_prop, acc_prop, v)
      | _ -> None)

type memory_mode = Permissions | Disk

type config = {
  mode : memory_mode;
  max_rounds : int;
  round_timeout : float;
}

let default_config = { mode = Permissions; max_rounds = 64; round_timeout = 16.0 }

let legal_change ~pid ~region:r ~current:_ ~requested =
  r = region
  &&
  match Permission.sole_writer requested with Some w -> w = pid | None -> false

let setup_regions cluster ~mode =
  let n = Cluster.n cluster in
  let perm =
    match mode with
    | Permissions -> Permission.exclusive_writer ~writer:0 ~n
    | Disk -> Permission.all_readwrite ~n
  in
  Cluster.add_region_everywhere cluster ~name:region ~perm
    ~registers:(List.init n slot_reg)

(* Everything the proposer hears back, from either kind of agent, lands in
   one mailbox tagged with the proposal number it answers. *)
type reply =
  | Mem_info of { prop_nr : int; slots : (int * int * string) option array }
  | Mem_ack of { prop_nr : int }
  | Mem_fail of { prop_nr : int }
  | Proc_msg of { from : int; msg : Paxos.msg }

(* Phase-1 chain for memory agent [mem]: (acquire permission,) write the
   proposal number, read all slots.  A leader that believes it already
   holds the permission skips the grab — the retention optimization that
   makes permissions pay off (as in Protected Memory Paxos); if the
   belief is stale the write naks and the next round regrabs. *)
let phase1_mem_chain (ctx : _ Cluster.ctx) cfg ~mem ~prop_nr ~grab box =
  let n = ctx.Cluster.cluster_n in
  let me = ctx.Cluster.pid in
  let client = ctx.Cluster.client in
  (match cfg.mode with
  | Permissions when grab ->
      ignore
        (Memclient.change_permission client ~mem ~region
           ~perm:(Permission.exclusive_writer ~writer:me ~n))
  | Permissions | Disk -> ());
  let w =
    Memclient.write client ~mem ~region ~reg:(slot_reg me)
      (encode_slot ~min_prop:prop_nr ~acc_prop:0 ~value:"")
  in
  match w with
  | Memory.Nak -> Mailbox.send box (Mem_fail { prop_nr })
  | Memory.Ack -> (
      match
        Ivar.await
          (Memory.read_many_async (Memclient.mem client mem) ~from:me ~region
             ~regs:(List.init n slot_reg))
      with
      | Memory.Read_many_nak -> Mailbox.send box (Mem_fail { prop_nr })
      | Memory.Read_many values ->
          let slots = Array.map (fun v -> Option.bind v decode_slot) values in
          Mailbox.send box (Mem_info { prop_nr; slots }))
[@@simlint.allow
  "F1 Nak-vs-Ack detects permission loss, not remote visibility; in \
   Permissions mode a rival must switch permissions -- draining this \
   write -- before acting, and the awaited same-QP read-back that \
   follows orders behind it anyway (EXPERIMENTS.md W2)"]

(* Phase-2 chain: write the accepted value; in Disk mode, read back to
   check for rivals (the two extra delays permissions save). *)
let phase2_mem_chain (ctx : _ Cluster.ctx) cfg ~mem ~prop_nr ~value box =
  let n = ctx.Cluster.cluster_n in
  let me = ctx.Cluster.pid in
  let client = ctx.Cluster.client in
  let w =
    Memclient.write client ~mem ~region ~reg:(slot_reg me)
      (encode_slot ~min_prop:prop_nr ~acc_prop:prop_nr ~value)
  in
  match w with
  | Memory.Nak -> Mailbox.send box (Mem_fail { prop_nr })
  | Memory.Ack -> (
      match cfg.mode with
      | Permissions -> Mailbox.send box (Mem_ack { prop_nr })
      | Disk -> (
          match
            Ivar.await
              (Memory.read_many_async (Memclient.mem client mem) ~from:me ~region
                 ~regs:(List.init n slot_reg))
          with
          | Memory.Read_many_nak -> Mailbox.send box (Mem_fail { prop_nr })
          | Memory.Read_many values ->
              let rival =
                Array.exists
                  (fun v ->
                    match Option.bind v decode_slot with
                    | Some (mp, _, _) -> mp > prop_nr
                    | None -> false)
                  values
              in
              Mailbox.send box
                (if rival then Mem_fail { prop_nr } else Mem_ack { prop_nr })))
[@@simlint.allow
  "F1 same structure as phase 1: permission drain in Permissions mode, \
   awaited same-QP read-back self-fence in Disk mode (EXPERIMENTS.md W2)"]

let decide_now (ctx : _ Cluster.ctx) decision value =
  if
    Ivar.try_fill decision
      { Report.value; at = Engine.now ctx.Cluster.ctx_engine }
  then
    Obs.event
      (Engine.obs ctx.Cluster.ctx_engine)
      ~actor:(Printf.sprintf "p%d" ctx.Cluster.pid)
      (Event.Decide { pid = ctx.Cluster.pid; value })

(* Route network traffic: acceptor requests to the acceptor, everything
   else to the proposer's reply box. *)
let pump (ctx : _ Cluster.ctx) ~acceptor_box ~reply_box decision =
  let continue = ref true in
  while !continue do
    let from, payload = Network.recv ctx.Cluster.ep in
    match Paxos.decode payload with
    | None -> ()
    | Some (Paxos.Decide { value } as m) ->
        decide_now ctx decision value;
        Mailbox.send acceptor_box (from, m);
        continue := false
    | Some (Paxos.Prepare _ as m) | Some (Paxos.Accept _ as m) ->
        Mailbox.send acceptor_box (from, m)
    | Some m -> Mailbox.send reply_box (Proc_msg { from; msg = m })
  done

(* Standard Paxos acceptor over the network — the process-agent half. *)
let acceptor (ctx : _ Cluster.ctx) ~acceptor_box =
  let ep = ctx.Cluster.ep in
  let min_proposal = ref 0 in
  let accepted_ballot = ref 0 in
  let accepted_value = ref "" in
  let continue = ref true in
  while !continue do
    let from, m = Mailbox.recv acceptor_box in
    match m with
    | Paxos.Prepare { ballot } ->
        if ballot > !min_proposal then begin
          min_proposal := ballot;
          Network.send ep ~dst:from
            (Paxos.encode
               (Paxos.Promise
                  { ballot; accepted_ballot = !accepted_ballot;
                    accepted_value = !accepted_value }))
        end
        else
          Network.send ep ~dst:from
            (Paxos.encode (Paxos.Reject { ballot; higher = !min_proposal }))
    | Paxos.Accept { ballot; value } ->
        if ballot >= !min_proposal then begin
          min_proposal := ballot;
          accepted_ballot := ballot;
          accepted_value := value;
          Network.send ep ~dst:from (Paxos.encode (Paxos.Accepted { ballot }))
        end
        else
          Network.send ep ~dst:from
            (Paxos.encode (Paxos.Reject { ballot; higher = !min_proposal }))
    | Paxos.Decide _ -> continue := false
    | Paxos.Promise _ | Paxos.Reject _ | Paxos.Accepted _ -> ()
  done

type collect_outcome =
  | Enough of reply list
  | Restart

(* Wait until a majority of the n + m agents answered positively for
   [prop_nr]; restart on any rejection/failure or on timeout. *)
let collect (ctx : _ Cluster.ctx) cfg ~reply_box ~prop_nr ~is_positive =
  let n = ctx.Cluster.cluster_n and m = ctx.Cluster.cluster_m in
  let needed = ((n + m) / 2) + 1 in
  let deadline = Engine.now ctx.Cluster.ctx_engine +. cfg.round_timeout in
  let rec loop acc count =
    if count >= needed then Enough acc
    else
      let remaining = deadline -. Engine.now ctx.Cluster.ctx_engine in
      if remaining <= 0. then Restart
      else
        match Mailbox.recv_timeout reply_box remaining with
        | None -> Restart
        | Some reply -> (
            match is_positive reply with
            | `Yes -> loop (reply :: acc) (count + 1)
            | `No -> Restart
            | `Stale -> loop acc count)
  in
  ignore prop_nr;
  loop [] 0

let proposer (ctx : _ Cluster.ctx) cfg ~input ~reply_box decision =
  let n = ctx.Cluster.cluster_n in
  let m = ctx.Cluster.cluster_m in
  let me = ctx.Cluster.pid in
  let ep = ctx.Cluster.ep in
  let round = ref 0 in
  (* p0 starts as the initial exclusive writer; anyone else must grab *)
  let holds_permission = ref (me = 0 && cfg.mode = Permissions) in
  let continue = ref true in
  while !continue do
    Omega.wait_until_leader ctx.Cluster.ctx_omega ~me;
    if Ivar.is_full decision then continue := false
    else begin
      incr round;
      if !round > cfg.max_rounds then continue := false
      else begin
        let prop_nr = (!round * n) + me + 1 in
        let grab = not !holds_permission in
        if cfg.mode = Permissions then holds_permission := true;
        (* Phase 1: communicate with every agent. *)
        for i = 0 to m - 1 do
          ctx.Cluster.spawn_sub
            (Printf.sprintf "aligned.p1.chain%d" i)
            (fun () -> phase1_mem_chain ctx cfg ~mem:i ~prop_nr ~grab reply_box)
        done;
        Network.broadcast ep (Paxos.encode (Paxos.Prepare { ballot = prop_nr }));
        let phase1 =
          collect ctx cfg ~reply_box ~prop_nr ~is_positive:(fun reply ->
              match reply with
              | Mem_info { prop_nr = p; slots } when p = prop_nr ->
                  if
                    Array.exists
                      (function Some (mp, _, _) -> mp > prop_nr | None -> false)
                      slots
                  then `No
                  else `Yes
              | Mem_fail { prop_nr = p } when p = prop_nr -> `No
              | Proc_msg { msg = Paxos.Promise { ballot; _ }; _ } when ballot = prop_nr
                ->
                  `Yes
              | Proc_msg { msg = Paxos.Reject { ballot; _ }; _ } when ballot = prop_nr
                ->
                  `No
              | Proc_msg { msg = Paxos.Decide { value }; _ } ->
                  decide_now ctx decision value;
                  `No
              | Mem_info _ | Mem_fail _ (* stale proposal *)
              | Mem_ack _ (* phase-2 stragglers *)
              | Proc_msg _ -> `Stale)
        in
        match phase1 with
        | Restart ->
            holds_permission := false;
            Engine.sleep 2.0
        | Enough replies -> (
            (* Analyze 1: adopt the value with the highest accProposal
               seen across both kinds of agents. *)
            let best = ref None in
            let consider acc_prop v =
              if acc_prop > 0 then
                match !best with
                | Some (b, _) when b >= acc_prop -> ()
                | _ -> best := Some (acc_prop, v)
            in
            List.iter
              (fun reply ->
                match reply with
                | Mem_info { slots; _ } ->
                    Array.iter
                      (function
                        | Some (_, ap, v) -> consider ap v
                        | None -> ())
                      slots
                | Proc_msg
                    { msg = Paxos.Promise { accepted_ballot; accepted_value; _ }; _ }
                  ->
                    consider accepted_ballot accepted_value
                | Mem_ack _ | Mem_fail _ | Proc_msg _ -> ())
              replies;
            let value = match !best with Some (_, v) -> v | None -> input in
            (* Phase 2 *)
            for i = 0 to m - 1 do
              ctx.Cluster.spawn_sub
                (Printf.sprintf "aligned.p2.chain%d" i)
                (fun () -> phase2_mem_chain ctx cfg ~mem:i ~prop_nr ~value reply_box)
            done;
            Network.broadcast ep (Paxos.encode (Paxos.Accept { ballot = prop_nr; value }));
            let phase2 =
              collect ctx cfg ~reply_box ~prop_nr ~is_positive:(fun reply ->
                  match reply with
                  | Mem_ack { prop_nr = p } when p = prop_nr -> `Yes
                  | Mem_fail { prop_nr = p } when p = prop_nr -> `No
                  | Proc_msg { msg = Paxos.Accepted { ballot }; _ } when ballot = prop_nr
                    ->
                      `Yes
                  | Proc_msg { msg = Paxos.Reject { ballot; _ }; _ }
                    when ballot = prop_nr ->
                      `No
                  | Proc_msg { msg = Paxos.Decide { value }; _ } ->
                      decide_now ctx decision value;
                      `No
                  | Mem_ack _ | Mem_fail _ | Mem_info _ (* stale proposal *)
                  | Proc_msg _ -> `Stale)
            in
            match phase2 with
            | Restart ->
                holds_permission := false;
                Engine.sleep 2.0
            | Enough _ ->
                decide_now ctx decision value;
                Network.broadcast ep (Paxos.encode (Paxos.Decide { value }));
                continue := false)
      end
    end
  done

let spawn cfg cluster pid input =
  let decision = Ivar.create () in
  Cluster.spawn cluster ~pid (fun ctx ->
      let acceptor_box = Mailbox.create () in
      let reply_box = Mailbox.create () in
      ctx.Cluster.spawn_sub "aligned.pump" (fun () ->
          pump ctx ~acceptor_box ~reply_box decision);
      ctx.Cluster.spawn_sub "aligned.acceptor" (fun () -> acceptor ctx ~acceptor_box);
      proposer ctx cfg ~input ~reply_box decision);
  fun () -> Ivar.peek decision

let run ?(cfg = default_config) ?(seed = 1) ?faults ?prepare ~n ~m ~inputs () =
  let algorithm, legal_change =
    match cfg.mode with
    | Permissions -> ("aligned-paxos", legal_change)
    | Disk -> ("aligned-paxos-disk", Permission.static_permissions)
  in
  fst
    (Instance.decide ~algorithm ~legal_change
       ~setup:(setup_regions ~mode:cfg.mode)
       ?faults ?prepare ~seed ~n ~m ~inputs ~spawn:(spawn cfg) ())

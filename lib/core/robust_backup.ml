(* Robust Backup (Definition 2): a crash-tolerant message-passing
   consensus algorithm A, with every send/receive replaced by
   T-send/T-receive, becomes a weak Byzantine agreement algorithm for
   n ≥ 2fP + 1 processes and m ≥ 2fM + 1 memories (Lemma 4.3 /
   Theorem 4.4).

   A = our classic Paxos; the transformation is literal — the Paxos
   functor is instantiated with a transport whose send/recv are
   T-send/T-receive over non-equivocating broadcast.  The Clement et al.
   state-machine check is [paxos_validator]: it replays the sender's
   claimed history and rejects any message a correct Paxos process could
   not send, translating Byzantine deviations into (detected) crashes. *)

open Rdma_sim
open Rdma_mm

(* {2 The trusted transport} *)

module T_transport = struct
  type t = {
    me : int;
    n : int;
    trusted : Trusted.t;
    inbox : (int * string) Mailbox.t;
  }

  let me t = t.me

  let n t = t.n

  (* Point-to-point send = non-equivocating broadcast of (dst, m);
     processes other than dst verify and record it but do not act on it. *)
  let send t ~dst msg = Trusted.t_send t.trusted (Codec.join2 (Codec.int_field dst) msg)

  (* dst = -1 addresses everyone in a single broadcast. *)
  let broadcast t msg = Trusted.t_send t.trusted (Codec.join2 (Codec.int_field (-1)) msg)

  let recv t = Mailbox.recv t.inbox

  let recv_timeout t delay = Mailbox.recv_timeout t.inbox delay
end

module Paxos_bft = Paxos.Make (T_transport)

(* {2 The Paxos state-machine validator (the Clement et al. replay)} *)

(* Replay [src]'s claimed history (oldest first) to reconstruct the state
   a correct Paxos process would be in. *)
type replay = {
  mutable min_proposal : int; (* rises with each Sent Promise/Accepted *)
  mutable accepted : (int * string) option; (* from Sent Accepted *)
  mutable sent_prepare : int list;
  mutable sent_accept : (int * string) list;
  mutable recv_prepare : (int * int) list; (* (from, ballot) *)
  mutable recv_accept : (int * int * string) list; (* (from, ballot, value) *)
  mutable recv_promise : (int * int * int * string) list;
      (* (from, ballot, accepted_ballot, accepted_value) — addressed to src *)
  mutable recv_accepted : (int * int) list; (* (from, ballot) addressed to src *)
  mutable sent_setup : bool; (* at most one Preferential Paxos set-up message *)
  mutable ok : bool;
}

let fresh_replay () =
  {
    min_proposal = 0;
    accepted = None;
    sent_prepare = [];
    sent_accept = [];
    recv_prepare = [];
    recv_accept = [];
    recv_promise = [];
    recv_accepted = [];
    sent_setup = false;
    ok = true;
  }

(* Application messages over the trusted transport: Paxos messages, plus
   the set-up phase of Preferential Paxos (Algorithm 8), which the
   validator treats separately (its values are constrained by evidence
   verification at the receivers, not by Paxos replay). *)
type app = Paxos_msg of Paxos.msg | Setup_msg

let setup_tag = "pps"

let decode_app msg =
  match Codec.split2 msg with
  | None -> None
  | Some (dstf, pmsg) -> (
      match Codec.int_of_field dstf with
      | None -> None
      | Some dst -> (
          match Codec.split3 pmsg with
          | Some (tag, _, _) when tag = setup_tag -> Some (dst, Setup_msg)
          | _ -> (
              match Paxos.decode pmsg with
              | Some m -> Some (dst, Paxos_msg m)
              | None -> None)))

(* Check and apply one outgoing message of [src]. *)
let replay_sent st ~n ~src (dst, app) =
  let owns ballot = ballot > 0 && (ballot - 1) mod n = src in
  let majority = (n / 2) + 1 in
  (match app with
  | Setup_msg -> if st.sent_setup then st.ok <- false else st.sent_setup <- true
  | Paxos_msg m -> (
      match m with
  | Paxos.Promise { ballot; accepted_ballot; accepted_value } ->
      (* must answer a received Prepare, with a genuinely higher ballot,
         reporting exactly the accepted state *)
      if
        (not (List.exists (fun (f, b) -> f = dst && b = ballot) st.recv_prepare))
        || ballot <= st.min_proposal
        ||
        match st.accepted with
        | None -> accepted_ballot <> 0
        | Some (ab, av) -> accepted_ballot <> ab || accepted_value <> av
      then st.ok <- false
      else st.min_proposal <- ballot
  | Paxos.Accepted { ballot } ->
      (* must answer a received Accept not below the promise level *)
      let matching = List.find_opt (fun (f, b, _) -> f = dst && b = ballot) st.recv_accept in
      (match matching with
      | None -> st.ok <- false
      | Some (_, _, v) ->
          if ballot < st.min_proposal then st.ok <- false
          else begin
            st.min_proposal <- ballot;
            st.accepted <- Some (ballot, v)
          end)
  | Paxos.Reject { ballot; higher } ->
      (* must cite the actual current minProposal *)
      let was_asked =
        List.exists (fun (f, b) -> f = dst && b = ballot) st.recv_prepare
        || List.exists (fun (f, b, _) -> f = dst && b = ballot) st.recv_accept
      in
      if (not was_asked) || higher <> st.min_proposal then st.ok <- false
  | Paxos.Prepare { ballot } ->
      if not (owns ballot) then st.ok <- false
      else st.sent_prepare <- ballot :: st.sent_prepare
  | Paxos.Accept { ballot; value } ->
      (* needs a majority of promises for this ballot and the mandated
         value selection *)
      if not (owns ballot && List.mem ballot st.sent_prepare) then st.ok <- false
      else begin
        let promises =
          List.filter (fun (_, b, _, _) -> b = ballot) st.recv_promise
          |> List.sort_uniq (fun (f1, _, _, _) (f2, _, _, _) -> compare f1 f2)
        in
        if List.length promises < majority then st.ok <- false
        else begin
          let best =
            List.fold_left
              (fun acc (_, _, ab, av) ->
                if ab > 0 then
                  match acc with Some (b0, _) when b0 >= ab -> acc | _ -> Some (ab, av)
                else acc)
              None promises
          in
          (match best with
          | Some (_, v) when v <> value -> st.ok <- false
          | _ -> ());
          if st.ok then st.sent_accept <- (ballot, value) :: st.sent_accept
        end
      end
  | Paxos.Decide { value } ->
      (* needs a majority of Accepted for a ballot whose Accept src sent
         with this value *)
      let justified =
        List.exists
          (fun (ballot, v) ->
            v = value
            && List.length
                 (List.sort_uniq compare
                    (List.filter_map
                       (fun (f, b) -> if b = ballot then Some f else None)
                       st.recv_accepted))
               >= majority)
          st.sent_accept
      in
      if not justified then st.ok <- false));
  st

(* Record one incoming message [src] claims to have received. *)
let replay_received st ~src (dst, app) ~from =
  (match app with
  | Setup_msg -> ()
  | Paxos_msg m -> (
      match m with
      | Paxos.Prepare { ballot } ->
          if dst = src || dst = -1 then
            st.recv_prepare <- (from, ballot) :: st.recv_prepare
      | Paxos.Accept { ballot; value } ->
          if dst = src || dst = -1 then
            st.recv_accept <- (from, ballot, value) :: st.recv_accept
      | Paxos.Promise { ballot; accepted_ballot; accepted_value } ->
          if dst = src || dst = -1 then
            st.recv_promise <-
              (from, ballot, accepted_ballot, accepted_value) :: st.recv_promise
      | Paxos.Accepted { ballot } ->
          if dst = src || dst = -1 then
            st.recv_accepted <- (from, ballot) :: st.recv_accepted
      | Paxos.Reject _ | Paxos.Decide _ -> ()));
  st

(* The validator handed to the trusted layer: replay everything in the
   history, then check the new message. *)
let paxos_validator ~n : Trusted.validator =
 fun ~src ~history ~msg ->
  let st = fresh_replay () in
  List.iter
    (fun entry ->
      if st.ok then
        match entry with
        | Trusted.Sent { msg; _ } -> (
            match decode_app msg with
            | None -> st.ok <- false
            | Some app -> ignore (replay_sent st ~n ~src app))
        | Trusted.Received { src = from; msg; _ } -> (
            match decode_app msg with
            | None -> st.ok <- false
            | Some app -> ignore (replay_received st ~src app ~from)))
    history;
  if not st.ok then `Reject
  else
    match decode_app msg with
    | None -> `Reject
    | Some app ->
        ignore (replay_sent st ~n ~src app);
        if st.ok then `Accept else `Reject

(* {2 Wiring} *)

type config = {
  paxos : Paxos.config;
  trusted : Trusted.config;
  validate : bool; (* replay-check histories (Clement et al.) *)
}

(* Rounds are paced for the trusted transport: a T-sent message is
   delivered only after NEB poll cycles and O(n) cross-check reads, so a
   Paxos round trip costs tens of delay units.  max_rounds is kept low
   enough that a livelocked run cannot exhaust the NEB sequence space
   (each round broadcasts at most 3 messages per process). *)
let default_config =
  {
    paxos = { Paxos.round_timeout = 150.0; retry_backoff = 30.0; max_rounds = 16 };
    trusted =
      { Trusted.neb =
          { Neb.ns = ""; max_seq = 128; poll_interval = 1.0; give_up_at = 4000.0 } };
    validate = true;
  }

type handle = {
  decision : Report.decision Ivar.t;
  trusted : Trusted.t;
  transport : T_transport.t;
}

let decision h = h.decision

(* Build the trusted channel for one process.  [route] gets first look at
   every delivered application message (after the dst unwrap) and returns
   true to consume it — Preferential Paxos routes its set-up messages this
   way; everything else flows into the Paxos inbox. *)
let make_channel (ctx : _ Cluster.ctx) ?(cfg = default_config)
    ?(route = fun ~src:_ ~msg:_ -> false) () =
  let n = ctx.Cluster.cluster_n in
  let me = ctx.Cluster.pid in
  let inbox = Mailbox.create () in
  let validator = if cfg.validate then paxos_validator ~n else Trusted.accept_all in
  let trusted =
    Trusted.create ctx ~cfg:cfg.trusted ~validator
      ~on_receive:(fun ~src ~msg ->
        match Codec.split2 msg with
        | None -> ()
        | Some (dstf, pmsg) -> (
            match Codec.int_of_field dstf with
            | Some dst when dst = me || dst = -1 ->
                if not (route ~src ~msg:pmsg) then Mailbox.send inbox (src, pmsg)
            | _ -> ()))
      ()
  in
  ({ T_transport.me; n; trusted; inbox }, trusted)

(* Build the trusted transport and Paxos roles for one process.  Must be
   called from within the process's program fiber (it spawns
   sub-fibers). *)
let attach (ctx : _ Cluster.ctx) ?(cfg = default_config) ~input () =
  let transport, trusted = make_channel ctx ~cfg () in
  let paxos =
    Paxos_bft.spawn ~engine:ctx.Cluster.ctx_engine ~omega:ctx.Cluster.ctx_omega
      ~cfg:cfg.paxos ~spawn_fiber:ctx.Cluster.spawn_sub ~transport ~input ()
  in
  let decision = Paxos_bft.decision paxos in
  (* stop the NEB poller once we have decided, so the run quiesces *)
  Ivar.on_fill decision (fun _ -> Trusted.stop trusted);
  { decision; trusted; transport }

let setup_regions cluster ?(cfg = default_config) () =
  Neb.setup_regions cluster ~ns:cfg.trusted.Trusted.neb.Neb.ns
    ~max_seq:cfg.trusted.Trusted.neb.Neb.max_seq ()

(* Run honest processes with the given inputs; [byzantine] replaces the
   programs of chosen processes with adversarial behaviours. *)
let run ?(cfg = default_config) ?(seed = 1) ?faults ?prepare
    ?(byzantine : Instance.byzantine = []) ~n ~m ~inputs () =
  let report, _ =
    Instance.decide ~algorithm:"robust-backup"
      ~setup:(fun cluster -> setup_regions cluster ~cfg ())
      ~byzantine ?faults ?prepare ~seed ~n ~m ~inputs
      ~spawn:(fun cluster pid input ->
        let handle = ref None in
        Cluster.spawn cluster ~pid (fun ctx ->
            handle := Some (attach ctx ~cfg ~input ()));
        fun () -> Option.bind !handle (fun h -> Ivar.peek h.decision))
      ()
  in
  (report, List.map fst byzantine)

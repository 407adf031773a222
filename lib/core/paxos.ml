(* Classic single-decree Paxos (message passing, crash failures,
   n ≥ 2f + 1).

   This plays three roles in the repository:
   - the baseline message-passing consensus algorithm;
   - the algorithm A that Robust Backup transforms (Definition 2): the
     same functor body runs over trusted channels;
   - the backend of Preferential Paxos (Algorithm 8).

   Every process is proposer + acceptor + learner.  A proposer runs only
   while Ω trusts it; rounds use unique ballots (round * n + pid + 1).
   The decider broadcasts a Decide message so every correct process
   decides (the standard completion, cf. Theorem D.4). *)

open Rdma_sim
open Rdma_mm
open Rdma_obs

type msg =
  | Prepare of { ballot : int }
  | Promise of { ballot : int; accepted_ballot : int; accepted_value : string }
  | Reject of { ballot : int; higher : int }
  | Accept of { ballot : int; value : string }
  | Accepted of { ballot : int }
  | Decide of { value : string }

let encode = function
  | Prepare { ballot } -> Codec.join [ "prepare"; Codec.int_field ballot ]
  | Promise { ballot; accepted_ballot; accepted_value } ->
      Codec.join
        [ "promise"; Codec.int_field ballot; Codec.int_field accepted_ballot;
          accepted_value ]
  | Reject { ballot; higher } ->
      Codec.join [ "reject"; Codec.int_field ballot; Codec.int_field higher ]
  | Accept { ballot; value } ->
      Codec.join [ "accept"; Codec.int_field ballot; value ]
  | Accepted { ballot } -> Codec.join [ "accepted"; Codec.int_field ballot ]
  | Decide { value } -> Codec.join [ "decide"; value ]

let decode s =
  match Codec.split s with
  | [ "prepare"; b ] ->
      Option.map (fun ballot -> Prepare { ballot }) (Codec.int_of_field b)
  | [ "promise"; b; ab; av ] -> (
      match (Codec.int_of_field b, Codec.int_of_field ab) with
      | Some ballot, Some accepted_ballot ->
          Some (Promise { ballot; accepted_ballot; accepted_value = av })
      | _ -> None)
  | [ "reject"; b; h ] -> (
      match (Codec.int_of_field b, Codec.int_of_field h) with
      | Some ballot, Some higher -> Some (Reject { ballot; higher })
      | _ -> None)
  | [ "accept"; b; v ] ->
      Option.map (fun ballot -> Accept { ballot; value = v }) (Codec.int_of_field b)
  | [ "accepted"; b ] ->
      Option.map (fun ballot -> Accepted { ballot }) (Codec.int_of_field b)
  | [ "decide"; v ] -> Some (Decide { value = v })
  | _ -> None

type config = {
  round_timeout : float; (* how long a proposer waits for a quorum *)
  max_rounds : int; (* proposer retry budget; keeps failing runs finite *)
  retry_backoff : float; (* pause between a failed round and the next *)
}

let default_config = { round_timeout = 8.0; max_rounds = 64; retry_backoff = 4.0 }

module Make (T : Transport.S) = struct
  type t = {
    tr : T.t;
    engine : Engine.t;
    omega : Omega.t;
    cfg : config;
    input : string;
    decision : Report.decision Ivar.t;
    acceptor_box : (int * msg) Mailbox.t;
    proposer_box : (int * msg) Mailbox.t;
  }

  let decision t = t.decision

  let me t = T.me t.tr

  let majority t = (T.n t.tr / 2) + 1

  let decide t value =
    if Ivar.try_fill t.decision { Report.value; at = Engine.now t.engine } then
      Obs.event (Engine.obs t.engine)
        ~actor:(Printf.sprintf "p%d" (me t))
        (Event.Decide { pid = me t; value })

  (* Route incoming messages to the role that consumes them.  A Decide
     both records the decision and poisons the role mailboxes so their
     fibers exit. *)
  let pump t =
    let continue = ref true in
    while !continue do
      let from, payload = T.recv t.tr in
      match decode payload with
      | None -> () (* garbage: a Byzantine sender; ignore *)
      | Some (Decide { value } as m) ->
          decide t value;
          Mailbox.send t.acceptor_box (from, m);
          Mailbox.send t.proposer_box (from, m);
          continue := false
      | Some (Prepare _ as m) | Some (Accept _ as m) ->
          Mailbox.send t.acceptor_box (from, m)
      | Some (Promise _ as m) | Some (Reject _ as m) | Some (Accepted _ as m) ->
          Mailbox.send t.proposer_box (from, m)
    done

  let acceptor t =
    let min_proposal = ref 0 in
    let accepted_ballot = ref 0 in
    let accepted_value = ref "" in
    let continue = ref true in
    while !continue do
      let from, m = Mailbox.recv t.acceptor_box in
      match m with
      | Prepare { ballot } ->
          if ballot > !min_proposal then begin
            min_proposal := ballot;
            T.send t.tr ~dst:from
              (encode
                 (Promise
                    { ballot; accepted_ballot = !accepted_ballot;
                      accepted_value = !accepted_value }))
          end
          else T.send t.tr ~dst:from (encode (Reject { ballot; higher = !min_proposal }))
      | Accept { ballot; value } ->
          if ballot >= !min_proposal then begin
            min_proposal := ballot;
            accepted_ballot := ballot;
            accepted_value := value;
            T.send t.tr ~dst:from (encode (Accepted { ballot }))
          end
          else T.send t.tr ~dst:from (encode (Reject { ballot; higher = !min_proposal }))
      | Decide _ -> continue := false
      | Promise _ | Reject _ | Accepted _ -> ()
    done

  (* Collect replies to [ballot] until [quorum] positive replies, a
     reject, the deadline, or a decision.  Returns the positive replies. *)
  type 'a collect = Quorum of 'a list | Rejected of int | Timeout | Decided

  let collect_replies t ~ballot ~quorum ~extract =
    let deadline = Engine.now t.engine +. t.cfg.round_timeout in
    (* count each responder once — a (Byzantine) duplicate must not
       inflate the quorum *)
    let rec loop acc seen =
      if List.length acc >= quorum then Quorum acc
      else
        let remaining = deadline -. Engine.now t.engine in
        if remaining <= 0. then Timeout
        else
          match Mailbox.recv_timeout t.proposer_box remaining with
          | None -> Timeout
          | Some (from, m) -> (
              match m with
              | Decide _ -> Decided
              | Reject { ballot = b; higher } when b = ballot -> Rejected higher
              | Reject _ (* stale ballot *)
              | Prepare _ | Promise _ | Accept _ | Accepted _ -> (
                  match extract from m with
                  | Some r when not (List.mem from seen) ->
                      loop (r :: acc) (from :: seen)
                  | Some _ | None -> loop acc seen))
    in
    loop [] []

  let proposer t =
    let obs = Engine.obs t.engine in
    let actor = Printf.sprintf "p%d" (me t) in
    let round = ref 0 in
    let continue = ref true in
    (* Ballot skipping: a Reject names the higher ballot the acceptor has
       promised, so jump the round counter past it instead of ratcheting
       up one round at a time.  Without this, a leader taking over from a
       long-lived predecessor needs one (slow) round per ballot it is
       behind — enough to stall liveness past any finite patience. *)
    let catch_up higher =
      round := max !round ((higher - me t - 1) / T.n t.tr)
    in
    while !continue && not (Ivar.is_full t.decision) do
      Omega.wait_until_leader t.omega ~me:(me t);
      if Ivar.is_full t.decision then continue := false
      else begin
        incr round;
        if !round > t.cfg.max_rounds then continue := false
        else begin
          let ballot = (!round * T.n t.tr) + me t + 1 in
          let phase1 =
            Obs.with_span obs ~actor ~cat:"phase" "paxos.phase1" (fun () ->
                T.broadcast t.tr (encode (Prepare { ballot }));
                collect_replies t ~ballot ~quorum:(majority t)
                  ~extract:(fun _ m ->
                    match m with
                    | Promise { ballot = b; accepted_ballot; accepted_value }
                      when b = ballot ->
                        Some (accepted_ballot, accepted_value)
                    | Promise _ (* stale ballot *)
                    | Prepare _ | Reject _ | Accept _ | Accepted _ | Decide _ ->
                        None))
          in
          match phase1 with
          | Decided -> continue := false
          | Rejected higher ->
              catch_up higher;
              Engine.sleep t.cfg.retry_backoff
          | Timeout -> Engine.sleep t.cfg.retry_backoff
          | Quorum promises -> (
              let value =
                let best =
                  List.fold_left
                    (fun acc (ab, av) ->
                      match acc with
                      | Some (b, _) when b >= ab -> acc
                      | _ -> if ab > 0 then Some (ab, av) else acc)
                    None promises
                in
                match best with Some (_, v) -> v | None -> t.input
              in
              let phase2 =
                Obs.with_span obs ~actor ~cat:"phase" "paxos.phase2" (fun () ->
                    T.broadcast t.tr (encode (Accept { ballot; value }));
                    collect_replies t ~ballot ~quorum:(majority t)
                      ~extract:(fun _ m ->
                        match m with
                        | Accepted { ballot = b } when b = ballot -> Some ()
                        | Accepted _ (* stale ballot *)
                        | Prepare _ | Promise _ | Reject _ | Accept _ | Decide _ ->
                            None))
              in
              match phase2 with
              | Decided -> continue := false
              | Rejected higher ->
                  catch_up higher;
                  Engine.sleep t.cfg.retry_backoff
              | Timeout -> Engine.sleep t.cfg.retry_backoff
              | Quorum _ ->
                  (* Decide and tell everyone (self included: the pump
                     records the decision uniformly). *)
                  decide t value;
                  T.broadcast t.tr (encode (Decide { value }));
                  continue := false)
        end
      end
    done

  (* Wire up one process: [spawn_fiber] creates the three role fibers
     (cluster-provided, so an injected crash kills them all).  Returns the
     handle whose [decision] ivar fills when this process decides. *)
  let spawn ~engine ~omega ?(cfg = default_config) ~spawn_fiber ~transport ~input () =
    let t =
      {
        tr = transport;
        engine;
        omega;
        cfg;
        input;
        decision = Ivar.create ();
        acceptor_box = Mailbox.create ();
        proposer_box = Mailbox.create ();
      }
    in
    spawn_fiber "paxos.pump" (fun () -> pump t);
    spawn_fiber "paxos.acceptor" (fun () -> acceptor t);
    spawn_fiber "paxos.proposer" (fun () -> proposer t);
    t
end

module Over_network = Make (Transport.Net)

(* Run a complete message-passing Paxos instance on a fresh cluster. *)
let run ?(cfg = default_config) ?(seed = 1) ?faults ?prepare ~n ~inputs () =
  fst
    (Instance.decide ~algorithm:"paxos" ?faults ?prepare ~seed ~n ~m:0 ~inputs
       ~spawn:(fun cluster pid input ->
         let ctx = Cluster.ctx cluster pid in
         let transport = Transport.Net.make ~ep:ctx.Cluster.ep ~n in
         let h =
           Over_network.spawn
             ~engine:(Cluster.engine cluster)
             ~omega:(Cluster.omega cluster)
             ~cfg ~spawn_fiber:ctx.Cluster.spawn_sub ~transport ~input ()
         in
         fun () -> Ivar.peek (Over_network.decision h))
       ())

(* Trusted message passing: T-send / T-receive (Algorithm 3, after
   Clement et al. [20]).

   Every T-sent message travels by non-equivocating broadcast together
   with the sender's *full history*, and receivers check that the history
   (a) extends the history the sender previously presented, (b) is
   signed where its new part cites other processes, and (c) together
   with the new message conforms to the protocol being run (a pluggable
   validator — the state-machine replay of Clement et al.).  A process
   that passes these checks forever can deviate from the protocol only
   by stopping — its Byzantine failure has been translated into a crash
   failure.

   Representation: history entries are flat records.  A Sent entry needs
   no signature of its own (the entire (k, (m, H)) broadcast is signed by
   the sender through NEB); a Received entry cites the original sender's
   *bare* signature on (k, m), which every process can verify standalone.
   To let receivers verify those citations, T-send attaches a bare
   signature alongside the NEB-signed payload. *)

open Rdma_mm
open Rdma_crypto
open Rdma_obs

type entry =
  | Sent of { k : int; msg : string }
  | Received of { src : int; k : int; msg : string; sig_enc : string }

let encode_entry = function
  | Sent { k; msg } -> Codec.join3 "s" (Codec.int_field k) msg
  | Received { src; k; msg; sig_enc } ->
      Codec.join [ "r"; Codec.int_field src; Codec.int_field k; msg; sig_enc ]

let decode_entry s =
  match Codec.split s with
  | Some [ "s"; kf; msg ] -> Option.map (fun k -> Sent { k; msg }) (Codec.int_of_field kf)
  | Some [ "r"; srcf; kf; msg; sig_enc ] -> (
      match (Codec.int_of_field srcf, Codec.int_of_field kf) with
      | Some src, Some k -> Some (Received { src; k; msg; sig_enc })
      | _ -> None)
  | _ -> None

let encode_history entries = Codec.join (List.map encode_entry entries)

(* [None] for a malformed history, never the empty one: only [""]
   decodes to no entries. *)
let decode_history s =
  Option.bind (Codec.split s) (fun fields ->
      let entries = List.filter_map decode_entry fields in
      if List.length entries = List.length fields then Some entries else None)

(* The bare signature of (src, k, m) that Received entries cite. *)
let bare_payload ~k msg = Codec.join2 ("bare" ^ Codec.int_field k) msg

(* A validator inspects the claimed history of [src] (oldest first) and
   the new message, and says whether a correct process running the
   protocol could send it.  [`Accept] delivers; [`Reject] convicts. *)
type validator = src:int -> history:entry list -> msg:string -> [ `Accept | `Reject ]

let accept_all : validator = fun ~src:_ ~history:_ ~msg:_ -> `Accept

type t = {
  me : int;
  n : int;
  chain : Keychain.t;
  signer : Keychain.signer;
  obs : Obs.t;
  neb : Neb.t;
  validator : validator;
  on_receive : src:int -> msg:string -> unit;
  mutable history : entry list; (* newest first *)
  (* per peer: the history it presented with its last delivered message,
     oldest first, and that message — used for the prefix check *)
  peer_hist : entry list array;
  peer_last_sent : (int * string) option array;
  convicted : bool array;
}

(* Verify one cited Received entry: the claimed original sender really
   signed (k, m). *)
let cited_signature_ok chain = function
  | Sent _ -> true
  | Received { src; k; msg; sig_enc } -> (
      match Keychain.decode sig_enc with
      | None -> false
      | Some signature ->
          Keychain.author signature = src
          && Keychain.valid chain ~author:src (bare_payload ~k msg) signature)

(* H must extend H_prev ++ [Sent (k_prev, m_prev)], and the added suffix
   may contain only Received entries (between two sends, a correct
   process only receives).  Returns that suffix: the only part of H
   whose citations are new. *)
let extends ~prev ~prev_sent ~current =
  let rec strip_prefix prefix rest =
    match (prefix, rest) with
    | [], rest -> Some rest
    | p :: ps, r :: rs when p = r -> strip_prefix ps rs
    | _ -> None
  in
  let expected_prefix =
    match prev_sent with
    | None -> prev
    | Some (k, msg) -> prev @ [ Sent { k; msg } ]
  in
  match strip_prefix expected_prefix current with
  | Some suffix
    when List.for_all (function Received _ -> true | Sent _ -> false) suffix ->
      Some suffix
  | Some _ | None -> None

(* Called by the NEB deliver hook: k-th message of [src] with payload
   (m, bare signature, history). *)
let handle_delivery t ~k ~payload ~src =
  if not t.convicted.(src) then begin
    match Codec.split3 payload with
    | None -> t.convicted.(src) <- true
    | Some (msg, sig_enc, hist_enc) -> (
        match (Keychain.decode sig_enc, decode_history hist_enc) with
        | None, _ | _, None -> t.convicted.(src) <- true
        | Some bare_sig, Some history ->
            (* Prefix first: every citation in the accepted prefix was
               verified when it was accepted, and Sent entries cite
               nothing, so only the new suffix's citations need a
               verify.  The verdict is the one a full re-verification
               would reach. *)
            let checks =
              match
                extends ~prev:t.peer_hist.(src) ~prev_sent:t.peer_last_sent.(src)
                  ~current:history
              with
              | None -> false
              | Some suffix ->
                  Keychain.valid t.chain ~author:src (bare_payload ~k msg) bare_sig
                  && List.for_all (cited_signature_ok t.chain) suffix
                  && t.validator ~src ~history ~msg = `Accept
            in
            if not checks then t.convicted.(src) <- true
            else begin
              t.peer_hist.(src) <- history;
              t.peer_last_sent.(src) <- Some (k, msg);
              (* T-receive(m, src): record it in our own history and hand
                 the message to the application. *)
              t.history <- Received { src; k; msg; sig_enc } :: t.history;
              t.on_receive ~src ~msg
            end)
  end

let create (ctx : _ Cluster.ctx) ?(cfg = Neb.default_config) ?(validator = accept_all)
    ~on_receive () =
  let n = ctx.Cluster.cluster_n in
  let rec t =
    lazy
      {
        me = ctx.Cluster.pid;
        n;
        chain = ctx.Cluster.chain;
        signer = ctx.Cluster.signer;
        obs = ctx.Cluster.ctx_obs;
        neb =
          Neb.create ctx ~cfg
            ~deliver:(fun ~k ~msg ~src ->
              handle_delivery (Lazy.force t) ~k ~payload:msg ~src)
            ();
        validator;
        on_receive;
        history = [];
        peer_hist = Array.make n [];
        peer_last_sent = Array.make n None;
        convicted = Array.make n false;
      }
  in
  let t = Lazy.force t in
  Neb.spawn_poller ctx t.neb;
  t

let stop t = Neb.stop t.neb

let history t = List.rev t.history

let is_convicted t src = t.convicted.(src)

(* T-send(m): broadcast (m, bare signature, full history) and append the
   Sent entry. *)
let t_send t msg =
  let oldest_first = List.rev t.history in
  let k = ref 0 in
  (* the NEB sequence number equals the count of our prior broadcasts *)
  List.iter (function Sent _ -> incr k | Received _ -> ()) oldest_first;
  let seq = !k + 1 in
  (* Append the Sent entry NOW, before the broadcast yields to the
     simulator: Neb.broadcast blocks for the replicated write, and any
     message delivered to us in that window would otherwise be recorded
     ahead of this Sent — making our next presented history fail the
     receivers' extends-check and convicting a correct process.  The
     broadcast itself carries the pre-send snapshot, which is what the
     protocol specifies. *)
  t.history <- Sent { k = seq; msg } :: t.history;
  let bare_sig = Keychain.sign t.signer (bare_payload ~k:seq msg) in
  let payload =
    Codec.join3 msg (Keychain.encode bare_sig) (encode_history oldest_first)
  in
  (* observability: the cost of carrying full histories (the known
     burden of the Clement et al. transform, which motivates the Cheap
     Quorum fast path) *)
  Obs.gauge t.obs "trusted.max_history_entries"
    (float_of_int (List.length oldest_first));
  Obs.gauge t.obs "trusted.max_payload_bytes"
    (float_of_int (String.length payload));
  Neb.broadcast t.neb payload

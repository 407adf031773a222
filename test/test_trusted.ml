(* T-send / T-receive (Algorithm 3): history transmission, signature
   citation, prefix checking, and the validator hook. *)

open Rdma_sim
open Rdma_mm
open Rdma_consensus

let neb_cfg = { Neb.default_config with give_up_at = 300.0; poll_interval = 1.0 }

let build ?(seed = 1) ~n ~m () =
  let cluster : string Cluster.t = Cluster.create ~seed ~n ~m () in
  Neb.setup_regions cluster ~max_seq:neb_cfg.Neb.max_seq ();
  cluster

let test_basic_roundtrip () =
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let received = Array.init n (fun _ -> ref []) in
  for pid = 0 to n - 1 do
    Cluster.spawn cluster ~pid (fun ctx ->
        let t =
          Trusted.create ctx ~cfg:neb_cfg
            ~on_receive:(fun ~src ~msg -> received.(pid) := (src, msg) :: !(received.(pid)))
            ()
        in
        if pid = 0 then begin
          Trusted.t_send t "one";
          Engine.sleep 30.0;
          Trusted.t_send t "two"
        end)
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  for pid = 0 to n - 1 do
    Alcotest.(check (list (pair int string)))
      (Printf.sprintf "p%d receives p0's messages in order" pid)
      [ (0, "one"); (0, "two") ]
      (List.rev !(received.(pid)))
  done

let test_history_accumulates () =
  let n = 2 and m = 3 in
  let cluster = build ~n ~m () in
  let history_len = ref 0 in
  Cluster.spawn cluster ~pid:0 (fun ctx ->
      let t = Trusted.create ctx ~cfg:neb_cfg ~on_receive:(fun ~src:_ ~msg:_ -> ()) () in
      Trusted.t_send t "a";
      Engine.sleep 40.0;
      Trusted.t_send t "b";
      history_len := List.length (Trusted.history t));
  Cluster.spawn cluster ~pid:1 (fun ctx ->
      let t = Trusted.create ctx ~cfg:neb_cfg ~on_receive:(fun ~src:_ ~msg:_ -> ()) () in
      ignore t);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  (* p0's history: Sent a, (Received of own a via self-delivery), Sent b —
     at least the two sends. *)
  Alcotest.(check bool) "history grows" true (!history_len >= 2)

let test_validator_rejects () =
  (* A validator that rejects messages containing "evil": the sender is
     convicted at every correct receiver and nothing is delivered. *)
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let validator ~src:_ ~history:_ ~msg =
    if String.length msg >= 4 && String.sub msg 0 4 = "evil" then `Reject else `Accept
  in
  let received = Array.init n (fun _ -> ref []) in
  let convicted = Array.make n false in
  for pid = 0 to n - 1 do
    Cluster.spawn cluster ~pid (fun ctx ->
        let t =
          Trusted.create ctx ~cfg:neb_cfg ~validator
            ~on_receive:(fun ~src ~msg -> received.(pid) := (src, msg) :: !(received.(pid)))
            ()
        in
        if pid = 0 then begin
          Trusted.t_send t "evil plan";
          Engine.sleep 30.0;
          Trusted.t_send t "benign"
        end;
        if pid = 1 then begin
          Engine.sleep 100.0;
          convicted.(1) <- Trusted.is_convicted t 0
        end)
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (pair int string))) "nothing from the rejected sender" []
    (List.rev !(received.(1)));
  Alcotest.(check bool) "sender convicted" true convicted.(1)

let test_prefix_violation_convicts () =
  (* A Byzantine sender presents message 2 with a history that does not
     extend the history shown with message 1: receivers convict it.  We
     simulate by broadcasting two raw NEB payloads with inconsistent
     histories. *)
  let n = 2 and m = 3 in
  let cluster = build ~n ~m () in
  let received = ref [] in
  Cluster.spawn_byzantine cluster ~pid:0 (fun ctx ->
      let neb = Neb.create ctx ~cfg:neb_cfg ~deliver:(fun ~k:_ ~msg:_ ~src:_ -> ()) () in
      let bare k msg =
        Rdma_crypto.Keychain.encode
          (Rdma_crypto.Keychain.sign ctx.Cluster.signer (Trusted.bare_payload ~k msg))
      in
      (* message 1 with empty history *)
      Neb.broadcast neb (Codec.join3 "hello" (bare 1 "hello") (Trusted.encode_history []));
      Engine.sleep 20.0;
      (* message 2 whose history *omits* the Sent entry for message 1 *)
      Neb.broadcast neb (Codec.join3 "again" (bare 2 "again") (Trusted.encode_history [])));
  Cluster.spawn cluster ~pid:1 (fun ctx ->
      let t =
        Trusted.create ctx ~cfg:neb_cfg
          ~on_receive:(fun ~src ~msg -> received := (src, msg) :: !received)
          ()
      in
      ignore t);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (pair int string)))
    "only the first message delivered; the prefix cheat is convicted"
    [ (0, "hello") ]
    (List.rev !received)

let test_fabricated_citation_convicts () =
  (* A Byzantine sender cites a Received entry with a forged signature of
     p1: the citation check must convict. *)
  let n = 3 and m = 3 in
  let cluster = build ~n ~m () in
  let received = ref [] in
  Cluster.spawn_byzantine cluster ~pid:0 (fun ctx ->
      let neb = Neb.create ctx ~cfg:neb_cfg ~deliver:(fun ~k:_ ~msg:_ ~src:_ -> ()) () in
      let bare k msg =
        Rdma_crypto.Keychain.encode
          (Rdma_crypto.Keychain.sign ctx.Cluster.signer (Trusted.bare_payload ~k msg))
      in
      let forged_entry =
        Trusted.Received
          {
            src = 1;
            k = 1;
            msg = "i never said this";
            sig_enc =
              Rdma_crypto.Keychain.encode
                (Rdma_crypto.Keychain.forge ~author:1
                   (Trusted.bare_payload ~k:1 "i never said this"));
          }
      in
      Neb.broadcast neb
        (Codec.join3 "msg" (bare 1 "msg") (Trusted.encode_history [ forged_entry ])));
  for pid = 1 to 2 do
    Cluster.spawn cluster ~pid (fun ctx ->
        let t =
          Trusted.create ctx ~cfg:neb_cfg
            ~on_receive:(fun ~src ~msg -> received := (src, msg) :: !received)
            ()
        in
        ignore t)
  done;
  Cluster.run cluster;
  Cluster.check_errors cluster;
  Alcotest.(check (list (pair int string))) "forged citation rejected" [] !received

(* A Byzantine sender p0 that drives NEB by hand, so each test chooses
   the history presented with each message; correct p1 is the only
   receiver (p2 runs nothing).  [cite ~src ~k msg] is the Received entry
   a correct process would record for [src]'s k-th message: it carries
   [src]'s real bare signature.  [validator] sees the cluster, so it can
   read the run's counters.  Returns p1's deliveries (src, msg), oldest
   first, and whether p1 convicted p0. *)
let run_byzantine_sender ?(validator = fun _ -> Trusted.accept_all) histories =
  let cluster = build ~n:3 ~m:3 () in
  let received = ref [] and convicted = ref false in
  Cluster.spawn_byzantine cluster ~pid:0 (fun ctx ->
      let neb = Neb.create ctx ~cfg:neb_cfg ~deliver:(fun ~k:_ ~msg:_ ~src:_ -> ()) () in
      let bare pid ~k msg =
        Rdma_crypto.Keychain.encode
          (Rdma_crypto.Keychain.sign
             (Rdma_crypto.Keychain.signer ctx.Cluster.chain pid)
             (Trusted.bare_payload ~k msg))
      in
      let cite ~src ~k msg = Trusted.Received { src; k; msg; sig_enc = bare src ~k msg } in
      List.iteri
        (fun i (msg, history) ->
          let k = i + 1 in
          Neb.broadcast neb
            (Codec.join3 msg (bare 0 ~k msg) (Trusted.encode_history (history ~cite)));
          Engine.sleep 20.0)
        histories);
  Cluster.spawn cluster ~pid:1 (fun ctx ->
      let t =
        Trusted.create ctx ~cfg:neb_cfg ~validator:(validator cluster)
          ~on_receive:(fun ~src ~msg -> received := (src, msg) :: !received)
          ()
      in
      Engine.sleep 200.0;
      convicted := Trusted.is_convicted t 0);
  Cluster.run cluster;
  Cluster.check_errors cluster;
  (List.rev !received, !convicted)

let test_new_suffix_citation_forged () =
  (* Message 1 is honest.  Message 2 extends its history correctly, but
     its new suffix cites a signature p2 never made: verifying only the
     suffix must still catch it. *)
  let forged ~k msg =
    Trusted.Received
      {
        src = 2;
        k;
        msg;
        sig_enc =
          Rdma_crypto.Keychain.encode
            (Rdma_crypto.Keychain.forge ~author:2 (Trusted.bare_payload ~k msg));
      }
  in
  let received, convicted =
    run_byzantine_sender
      [
        ("one", fun ~cite -> [ cite ~src:2 ~k:1 "a" ]);
        ( "two",
          fun ~cite ->
            [ cite ~src:2 ~k:1 "a"; Trusted.Sent { k = 1; msg = "one" }; forged ~k:2 "b" ]
        );
      ]
  in
  Alcotest.(check (list (pair int string))) "only message 1 delivered" [ (0, "one") ] received;
  Alcotest.(check bool) "sender convicted" true convicted

let test_rewritten_prefix_convicts () =
  (* Message 2 rewrites a Received entry accepted with message 1 into a
     different, validly signed citation: the prefix is not the accepted
     one, and extends convicts. *)
  let received, convicted =
    run_byzantine_sender
      [
        ("one", fun ~cite -> [ cite ~src:2 ~k:1 "a" ]);
        ("two", fun ~cite -> [ cite ~src:2 ~k:1 "b"; Trusted.Sent { k = 1; msg = "one" } ]);
      ]
  in
  Alcotest.(check (list (pair int string))) "only message 1 delivered" [ (0, "one") ] received;
  Alcotest.(check bool) "sender convicted" true convicted

let test_verifies_only_new_citations () =
  (* Between the two validator calls come NEB's check of message 2's
     slot signature, then Trusted's bare signature and one verify per
     citation in the new suffix (two here).  The prefix's citation was
     verified with message 1 and is not verified again. *)
  let seen = ref [] in
  let validator cluster ~src:_ ~history:_ ~msg:_ =
    seen := Rdma_obs.Obs.counter (Cluster.obs cluster) "crypto.verifies" :: !seen;
    `Accept
  in
  let received, convicted =
    run_byzantine_sender ~validator
      [
        ("one", fun ~cite -> [ cite ~src:2 ~k:1 "a" ]);
        ( "two",
          fun ~cite ->
            [
              cite ~src:2 ~k:1 "a";
              Trusted.Sent { k = 1; msg = "one" };
              cite ~src:2 ~k:2 "b";
              cite ~src:2 ~k:3 "c";
            ] );
      ]
  in
  Alcotest.(check (list (pair int string))) "both delivered"
    [ (0, "one"); (0, "two") ] received;
  Alcotest.(check bool) "sender not convicted" false convicted;
  match !seen with
  | [ second; first ] ->
      Alcotest.(check int) "NEB slot + bare signature + 2 new citations" (1 + 1 + 2)
        (second - first)
  | _ -> Alcotest.fail "expected one validator call per delivery"

let test_entry_codec_roundtrip () =
  let entries =
    [
      Trusted.Sent { k = 1; msg = "hello|world" };
      Trusted.Received { src = 2; k = 7; msg = ""; sig_enc = "1:abc" };
      Trusted.Sent { k = 2; msg = "" };
    ]
  in
  match Trusted.decode_history (Trusted.encode_history entries) with
  | Some entries' ->
      Alcotest.(check int) "length preserved" (List.length entries) (List.length entries');
      Alcotest.(check bool) "entries preserved" true (entries = entries')
  | None -> Alcotest.fail "history did not roundtrip"

let suite =
  [
    Alcotest.test_case "t-send/t-receive roundtrip" `Quick test_basic_roundtrip;
    Alcotest.test_case "history accumulates" `Quick test_history_accumulates;
    Alcotest.test_case "validator rejection convicts" `Quick test_validator_rejects;
    Alcotest.test_case "history prefix violation convicts" `Quick
      test_prefix_violation_convicts;
    Alcotest.test_case "fabricated citation convicts" `Quick
      test_fabricated_citation_convicts;
    Alcotest.test_case "forged citation in a new suffix convicts" `Quick
      test_new_suffix_citation_forged;
    Alcotest.test_case "rewritten accepted prefix convicts" `Quick
      test_rewritten_prefix_convicts;
    Alcotest.test_case "only new citations are verified" `Quick
      test_verifies_only_new_citations;
    Alcotest.test_case "history codec roundtrip" `Quick test_entry_codec_roundtrip;
  ]

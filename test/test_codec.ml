(* Codec round-trip and canonicality tests, including qcheck properties. *)

open Rdma_consensus

let test_simple_roundtrip () =
  let fields = [ "abc"; "def"; "" ] in
  Alcotest.(check string) "frames" "3:abc3:def0:" (Codec.join fields);
  Alcotest.(check string) "no fields" "" (Codec.join []);
  Alcotest.(check (option (list string))) "roundtrip" (Some fields)
    (Codec.split (Codec.join fields));
  List.iter
    (fun c ->
      Alcotest.(check bool) "kv command roundtrip" true
        (Rdma_smr.Kv.decode_command (Rdma_smr.Kv.encode_command c) = Some c))
    [ Rdma_smr.Kv.Set ("k", "v"); Rdma_smr.Kv.Delete "k"; Rdma_smr.Kv.Noop ]

let test_separator_escaped () =
  let fields = [ "a|b"; "c%d"; "%7c"; "1:x"; ":"; "10:" ] in
  Alcotest.(check (option (list string))) "separator-like bytes roundtrip" (Some fields)
    (Codec.split (Codec.join fields));
  Alcotest.(check string) "nothing is escaped" "3:a|b" (Codec.join [ "a|b" ])

let test_fixed_arity () =
  Alcotest.(check (option (pair string string))) "split2" (Some ("x", "y"))
    (Codec.split2 (Codec.join2 "x" "y"));
  Alcotest.(check bool) "split3 rejects arity-2" true (Codec.split3 (Codec.join2 "x" "y") = None);
  (match Codec.split4 (Codec.join4 "a" "b" "c" "d") with
  | Some ("a", "b", "c", "d") -> ()
  | _ -> Alcotest.fail "split4 failed");
  Alcotest.(check (option int)) "int field" (Some 42) (Codec.int_of_field (Codec.int_field 42))

let qcheck_roundtrip =
  QCheck2.Test.make ~name:"codec join/split roundtrips arbitrary fields" ~count:500
    QCheck2.Gen.(list (string_size (0 -- 30)))
    (fun fields -> Codec.split (Codec.join fields) = Some fields)

let qcheck_canonical =
  QCheck2.Test.make ~name:"codec encodings are injective" ~count:500
    QCheck2.Gen.(pair (list (string_size (0 -- 10))) (list (string_size (0 -- 10))))
    (fun (a, b) -> a = b || Codec.join a <> Codec.join b)

(* A frame-by-frame reference parser, written without the codec's
   header arithmetic: find the ':', check the header is a canonical
   decimal, then cut the payload.  [reference_frame s] is the first
   frame's payload and the rest of [s]. *)
let reference_frame s =
  match String.index_opt s ':' with
  | None -> None
  | Some colon -> (
      let header = String.sub s 0 colon in
      let canonical =
        header <> ""
        && String.for_all (fun c -> c >= '0' && c <= '9') header
        && (header = "0" || header.[0] <> '0')
        && String.length header <= 18
      in
      let rest = String.length s - colon - 1 in
      match if canonical then int_of_string_opt header else None with
      | Some len when len <= rest ->
          Some (String.sub s (colon + 1) len, String.sub s (colon + 1 + len) (rest - len))
      | _ -> None)

let rec reference_split s =
  if s = "" then Some []
  else
    match reference_frame s with
    | None -> None
    | Some (field, rest) -> Option.map (fun fields -> field :: fields) (reference_split rest)

let test_malformed_input () =
  Alcotest.(check (option (list string))) "empty string" (Some []) (Codec.split "");
  List.iter
    (fun input ->
      Alcotest.(check (option (list string))) (Printf.sprintf "split %S" input) None
        (Codec.split input);
      Alcotest.(check (option (list string))) (Printf.sprintf "reference on %S" input)
        None (reference_split input))
    [
      "0";
      ":";
      "01:a";
      "01:1:x";
      "2:a";
      "1:ab";
      "-1:";
      String.make 30 '9' ^ ":x";
      "a|b";
      "%e";
      "1:a:";
      "0:0";
      "00:";
      "+1:a";
      " 1:a";
    ]

(* Strings crowded with digits and ':', and encodings that were cut
   short, given a trailing byte or a leading zero: the shapes a strict
   decoder must tell apart. *)
let frame_field =
  QCheck2.Gen.(
    string_size ~gen:(frequency [ (3, oneofl [ '0'; '1'; '2'; '9'; ':' ]); (1, char) ]) (0 -- 12))

let frame_string =
  QCheck2.Gen.(
    let fields = list_size (0 -- 4) frame_field in
    frequency
      [
        (2, string_size ~gen:(oneofl [ '0'; '1'; '2'; '3'; ':'; 'a' ]) (0 -- 16));
        (2, map Codec.join fields);
        ( 2,
          map2
            (fun fs cut ->
              let s = Codec.join fs in
              String.sub s 0 (cut mod (String.length s + 1)))
            fields nat );
        (1, map2 (fun fs c -> Codec.join fs ^ String.make 1 c) fields char);
        (1, map (fun fs -> "0" ^ Codec.join fs) fields);
      ])

let qcheck_matches_reference =
  QCheck2.Test.make ~name:"codec split = frame-by-frame reference parser" ~count:2000
    frame_string (fun s -> Codec.split s = reference_split s)

(* Paxos message codec *)

let test_paxos_msgs_roundtrip () =
  let open Paxos in
  let msgs =
    [
      Prepare { ballot = 7 };
      Promise { ballot = 3; accepted_ballot = 0; accepted_value = "" };
      Promise { ballot = 3; accepted_ballot = 2; accepted_value = "weird|value%" };
      Reject { ballot = 5; higher = 9 };
      Accept { ballot = 4; value = "v" };
      Accepted { ballot = 4 };
      Decide { value = "final" };
    ]
  in
  List.iter
    (fun m ->
      match decode (encode m) with
      | Some m' when m = m' -> ()
      | _ -> Alcotest.fail "paxos message did not roundtrip")
    msgs

let test_paxos_decode_garbage () =
  Alcotest.(check bool) "garbage decodes to None" true (Paxos.decode "nonsense" = None);
  Alcotest.(check bool) "bad int decodes to None" true
    (Paxos.decode (Codec.join [ "prepare"; "xyz" ]) = None)

(* [head] peeks the tag a decoder dispatches on: wherever [split] is
   [Some], it reads the same first field, and it always reads exactly
   the first frame, so on a malformed tail it may still return one. *)
let qcheck_head =
  QCheck2.Test.make ~name:"codec head = first field of split" ~count:2000 frame_string
    (fun s ->
      let one_frame = Codec.head s = Option.map fst (reference_frame s) in
      match Codec.split s with
      | Some [] -> Codec.head s = None
      | Some (h :: _) -> Codec.head s = Some h && one_frame
      | None -> one_frame)

let any_byte_field =
  QCheck2.Gen.(
    string_size ~gen:(frequency [ (1, numeral); (1, return ':'); (2, char) ]) (0 -- 40))

let qcheck_roundtrip_bytes =
  QCheck2.Test.make ~name:"codec round trip over digits, ':' and any byte" ~count:1000
    QCheck2.Gen.(list_size (0 -- 6) any_byte_field)
    (fun fields -> Codec.split (Codec.join fields) = Some fields)

let qcheck_nested =
  QCheck2.Test.make ~name:"codec join of joins round-trips" ~count:500
    QCheck2.Gen.(list_size (0 -- 4) (list_size (0 -- 4) any_byte_field))
    (fun lists ->
      let inner = List.map Codec.join lists in
      Codec.split (Codec.join inner) = Some inner
      && List.for_all2 (fun l e -> Codec.split e = Some l) lists inner)

let qcheck_injective_frames =
  QCheck2.Test.make ~name:"codec injective over digits and ':'" ~count:2000
    QCheck2.Gen.(pair (list_size (0 -- 4) frame_field) (list_size (0 -- 4) frame_field))
    (fun (a, b) -> a = b || Codec.join a <> Codec.join b)

let test_history_strict () =
  Alcotest.(check bool) "\"\" is the empty history" true
    (Trusted.decode_history "" = Some []);
  let history =
    Trusted.encode_history
      [ Trusted.Sent { k = 1; msg = "m" }; Trusted.Sent { k = 2; msg = "n" } ]
  in
  List.iter
    (fun input ->
      Alcotest.(check bool) (Printf.sprintf "%S is malformed" input) true
        (Trusted.decode_history input = None))
    [
      history ^ "x";
      String.sub history 0 (String.length history - 1);
      "0" ^ history;
      Codec.join [ "s" ];
      Codec.join [ Codec.join3 "s" "01" "m" ];
      "garbage";
    ]

let test_non_canonical_ints () =
  List.iter
    (fun input ->
      Alcotest.(check (option int)) (Printf.sprintf "int_of_field %S" input) None
        (Codec.int_of_field input))
    [
      ""; "-"; "+5"; "0x1f"; "0b11"; "0o7"; "1_000"; "007"; "00"; "-0"; "-01"; " 1";
      "1 "; "1e3"; "4611686018427387904"; "-4611686018427387905";
      "99999999999999999999999999999";
    ];
  Alcotest.(check (option int)) "-1" (Some (-1)) (Codec.int_of_field "-1");
  Alcotest.(check (option int)) "0" (Some 0) (Codec.int_of_field "0")

let qcheck_int_roundtrip =
  QCheck2.Test.make ~name:"codec int_of_field (int_field i) = Some i" ~count:2000
    QCheck2.Gen.(
      frequency
        [ (4, int); (2, int_range (-1000) 1000); (1, oneofl [ 0; -1; max_int; min_int ]) ])
    (fun i -> Codec.int_of_field (Codec.int_field i) = Some i)

let suite =
  [
    Alcotest.test_case "simple roundtrip" `Quick test_simple_roundtrip;
    Alcotest.test_case "separators escaped" `Quick test_separator_escaped;
    Alcotest.test_case "fixed arity helpers" `Quick test_fixed_arity;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_canonical;
    Alcotest.test_case "malformed frames decode to None" `Quick test_malformed_input;
    QCheck_alcotest.to_alcotest qcheck_matches_reference;
    Alcotest.test_case "paxos messages roundtrip" `Quick test_paxos_msgs_roundtrip;
    Alcotest.test_case "paxos decode rejects garbage" `Quick test_paxos_decode_garbage;
    QCheck_alcotest.to_alcotest qcheck_head;
    QCheck_alcotest.to_alcotest qcheck_roundtrip_bytes;
    QCheck_alcotest.to_alcotest qcheck_nested;
    QCheck_alcotest.to_alcotest qcheck_injective_frames;
    Alcotest.test_case "trusted history: empty = Some [], malformed = None" `Quick
      test_history_strict;
    Alcotest.test_case "non-canonical integers decode to None" `Quick
      test_non_canonical_ints;
    QCheck_alcotest.to_alcotest qcheck_int_roundtrip;
  ]

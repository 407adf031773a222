(* Codec round-trip and canonicality tests, including qcheck properties. *)

open Rdma_consensus

let test_simple_roundtrip () =
  let fields = [ "abc"; "def"; "" ] in
  Alcotest.(check (list string)) "roundtrip" fields (Codec.split (Codec.join fields))

let test_separator_escaped () =
  let fields = [ "a|b"; "c%d"; "%7c" ] in
  Alcotest.(check (list string)) "escaping roundtrips" fields
    (Codec.split (Codec.join fields))

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
    (fun fields -> Codec.split (Codec.join fields) = fields)

let qcheck_canonical =
  QCheck2.Test.make ~name:"codec encodings are injective" ~count:500
    QCheck2.Gen.(pair (list (string_size (0 -- 10))) (list (string_size (0 -- 10))))
    (fun (a, b) -> a = b || Codec.join a <> Codec.join b)

(* The per-byte escape/unescape the codec shipped with, kept as the
   reference: the run-copying versions must produce the same bytes on
   every input, including the lenient decoding of non-canonical ones. *)
let reference_escape s =
  if s = "" then "%e"
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '|' -> Buffer.add_string buf "%7c"
        | '%' -> Buffer.add_string buf "%25"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let reference_unescape s =
  if s = "%e" then ""
  else begin
    let buf = Buffer.create (String.length s) in
    let i = ref 0 in
    let len = String.length s in
    while !i < len do
      (if s.[!i] = '%' && !i + 2 < len then begin
         match String.sub s (!i + 1) 2 with
         | "7c" -> Buffer.add_char buf '|'; i := !i + 3
         | "25" -> Buffer.add_char buf '%'; i := !i + 3
         | _ -> Buffer.add_char buf s.[!i]; incr i
       end
       else begin
         Buffer.add_char buf s.[!i];
         incr i
       end)
    done;
    Buffer.contents buf
  end

let test_lenient_decoding () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) (Printf.sprintf "unescape %S" input) expected
        (Codec.unescape input);
      Alcotest.(check string) (Printf.sprintf "reference on %S" input) expected
        (reference_unescape input))
    [
      ("%zz", "%zz");
      ("ab%", "ab%");
      ("%7", "%7");
      ("x%2", "x%2");
      ("%7c%25%e", "|%%e");
      ("%e", "");
      ("%e%e", "%e%e");
      ("a%%7cb", "a%|b");
      ("%257c", "%7c");
      ("plain", "plain");
    ]

(* Strings over an alphabet crowded with the bytes that matter to the
   codec, so escapes, near-escapes and "%e" show up often. *)
let codec_string =
  QCheck2.Gen.(
    string_size ~gen:(oneof [ oneofl [ '%'; '|'; '7'; 'c'; '2'; '5'; 'e' ]; char ]) (0 -- 24))

let qcheck_matches_reference =
  QCheck2.Test.make ~name:"codec escape/unescape = per-byte reference" ~count:2000
    codec_string (fun s ->
      String.equal (Codec.escape s) (reference_escape s)
      && String.equal (Codec.unescape s) (reference_unescape s))

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

(* [head] peeks the tag a decoder dispatches on: it must read the same
   first field [split] would, on canonical and non-canonical input
   alike, including "", "%e" and a leading '|'. *)
let qcheck_head =
  let special = QCheck2.Gen.oneofl [ '|'; '%'; '7'; 'c'; '2'; '5'; 'e' ] in
  let mostly_special =
    QCheck2.Gen.(string_size ~gen:(frequency [ (4, special); (1, char) ]) (0 -- 24))
  in
  QCheck2.Test.make ~name:"codec head = first field of split" ~count:2000
    QCheck2.Gen.(
      frequency
        [
          (1, oneofl [ ""; "%e"; "|"; "|%e"; "%e|x" ]);
          (1, map (fun s -> "|" ^ s) mostly_special);
          (6, mostly_special);
        ])
    (fun s ->
      Codec.head s = match Codec.split s with h :: _ -> Some h | [] -> None)

let suite =
  [
    Alcotest.test_case "simple roundtrip" `Quick test_simple_roundtrip;
    Alcotest.test_case "separators escaped" `Quick test_separator_escaped;
    Alcotest.test_case "fixed arity helpers" `Quick test_fixed_arity;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_canonical;
    Alcotest.test_case "lenient decoding of non-canonical input" `Quick
      test_lenient_decoding;
    QCheck_alcotest.to_alcotest qcheck_matches_reference;
    Alcotest.test_case "paxos messages roundtrip" `Quick test_paxos_msgs_roundtrip;
    Alcotest.test_case "paxos decode rejects garbage" `Quick test_paxos_decode_garbage;
    QCheck_alcotest.to_alcotest qcheck_head;
  ]

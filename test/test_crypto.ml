(* Crypto substrate tests: SHA-256 against the NIST FIPS 180-4 example
   vectors, HMAC-SHA256 against RFC 4231, and the keychain's simulated
   unforgeability. *)

open Rdma_crypto

let check_hash msg expected =
  Alcotest.(check string) ("sha256 of " ^ String.escaped (String.sub msg 0 (min 16 (String.length msg))))
    expected (Sha256.hex_of_string msg)

let test_sha256_empty () =
  check_hash "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

let test_sha256_abc () =
  check_hash "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

let test_sha256_two_blocks () =
  check_hash "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"

let test_sha256_448bit_boundary () =
  (* 56 bytes: forces the padding to spill into a second block *)
  check_hash (String.make 56 'a')
    "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"

let test_sha256_million_a () =
  check_hash (String.make 1_000_000 'a')
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"

let test_sha256_incremental () =
  (* Feeding in odd-sized chunks must match the one-shot digest. *)
  let msg = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let ctx = Sha256.init () in
  let pos = ref 0 in
  let chunk_sizes = [ 1; 3; 63; 64; 65; 100; 704 ] in
  List.iter
    (fun size ->
      let size = min size (String.length msg - !pos) in
      Sha256.feed_string ctx (String.sub msg !pos size);
      pos := !pos + size)
    chunk_sizes;
  Alcotest.(check string) "incremental = one-shot"
    (Sha256.to_hex (Sha256.digest_string msg))
    (Sha256.to_hex (Sha256.finalize ctx))

(* RFC 4231 test case 1 *)
let test_hmac_rfc4231_1 () =
  let key = String.make 20 '\x0b' in
  Alcotest.(check string) "rfc4231 #1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac_hex ~key "Hi There")

(* RFC 4231 test case 2 *)
let test_hmac_rfc4231_2 () =
  Alcotest.(check string) "rfc4231 #2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?")

(* RFC 4231 test case 3: key 20 x 0xaa, data 50 x 0xdd *)
let test_hmac_rfc4231_3 () =
  let key = String.make 20 '\xaa' in
  let data = String.make 50 '\xdd' in
  Alcotest.(check string) "rfc4231 #3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Hmac.mac_hex ~key data)

(* RFC 4231 test case 6: 131-byte key (hashed first) *)
let test_hmac_rfc4231_6 () =
  let key = String.make 131 '\xaa' in
  Alcotest.(check string) "rfc4231 #6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac_hex ~key "Test Using Larger Than Block-Size Key - Hash Key First")

(* The keyed form: one [Hmac.key] per secret, reused across messages
   and fed in parts, gives the same bytes as the one-shot [Hmac.mac] on
   the RFC 4231 cases (case 6 hashes its 131-byte key first). *)
let test_hmac_keyed_matches_one_shot () =
  List.iter
    (fun (name, secret, message) ->
      let key = Hmac.key secret in
      let one_shot = Hmac.mac ~key:secret message in
      let half = String.length message / 2 in
      Alcotest.(check string) (name ^ ": one part") one_shot (Hmac.mac_parts key [ message ]);
      let rest = String.sub message half (String.length message - half) in
      Alcotest.(check string) (name ^ ": split, key reused") one_shot
        (Hmac.mac_parts key [ String.sub message 0 half; ""; rest ]))
    [
      ("rfc4231 #1", String.make 20 '\x0b', "Hi There");
      ("rfc4231 #2", "Jefe", "what do ya want for nothing?");
      ("rfc4231 #3", String.make 20 '\xaa', String.make 50 '\xdd');
      ( "rfc4231 #6",
        String.make 131 '\xaa',
        "Test Using Larger Than Block-Size Key - Hash Key First" );
    ]

let test_sign_verify () =
  let chain = Keychain.create ~n:4 () in
  let s1 = Keychain.signer chain 1 in
  let signature = Keychain.sign s1 "hello" in
  Alcotest.(check bool) "valid for author" true
    (Keychain.valid chain ~author:1 "hello" signature);
  Alcotest.(check bool) "s_valid agrees" true (Keychain.s_valid chain "hello" signature);
  Alcotest.(check bool) "wrong payload rejected" false
    (Keychain.valid chain ~author:1 "hell0" signature);
  Alcotest.(check bool) "wrong author rejected" false
    (Keychain.valid chain ~author:2 "hello" signature)

let test_forgery_rejected () =
  let chain = Keychain.create ~n:4 () in
  let forged = Keychain.forge ~author:2 "payload" in
  Alcotest.(check bool) "forged signature invalid" false
    (Keychain.valid chain ~author:2 "payload" forged)

let test_cross_process_signature () =
  (* A signature by p3 must not validate as p1 even on the same payload. *)
  let chain = Keychain.create ~n:4 () in
  let s3 = Keychain.signer chain 3 in
  let signature = Keychain.sign s3 "v" in
  Alcotest.(check bool) "author mismatch rejected" false
    (Keychain.valid chain ~author:1 "v" signature)

let test_signature_codec () =
  let chain = Keychain.create ~n:4 () in
  let s0 = Keychain.signer chain 0 in
  let signature = Keychain.sign s0 "round-trip" in
  match Keychain.decode (Keychain.encode signature) with
  | None -> Alcotest.fail "decode failed"
  | Some s' ->
      Alcotest.(check bool) "decoded signature still valid" true
        (Keychain.valid chain ~author:0 "round-trip" s');
      Alcotest.(check int) "author preserved" 0 (Keychain.author s')

let test_decode_garbage () =
  Alcotest.(check bool) "garbage rejected" true (Keychain.decode "zz" = None);
  Alcotest.(check bool) "half-garbage rejected" true (Keychain.decode "1:nothex" = None);
  Alcotest.(check bool) "bad hex rejected" true
    (Keychain.decode ("1:" ^ String.make 64 'z') = None)

(* A tag recorded before the keychain kept per-secret midstates: the
   bytes a signature carries must not move. *)
let test_tag_pinned () =
  let chain = Keychain.create ~n:4 () in
  Alcotest.(check string) "tag of p1 on hello"
    "31b7b3689a201a3f6f1ae22220375fbcb23f26184ec0d2e49193146461945d4e"
    (Keychain.tag_hex (Keychain.sign (Keychain.signer chain 1) "hello"));
  Alcotest.(check string) "forged tag"
    "2b6832c67df26ded0f690bd10d2379c60b8a3b669b309b326737443b87ac31ba"
    (Keychain.tag_hex (Keychain.forge ~author:2 "payload"))

let test_hooks_count () =
  let chain = Keychain.create ~n:2 () in
  let signs = ref 0 and verifies = ref 0 in
  Keychain.set_hooks chain
    ~on_sign:(fun pid -> if pid = 0 then incr signs)
    ~on_verify:(fun ~ok:_ -> incr verifies);
  let s = Keychain.signer chain 0 in
  let g = Keychain.sign s "x" in
  ignore (Keychain.valid chain ~author:0 "x" g);
  ignore (Keychain.s_valid chain "x" g);
  Alcotest.(check int) "signs counted" 1 !signs;
  Alcotest.(check int) "verifies counted" 2 !verifies

(* qcheck properties *)

let qcheck_digest_shape =
  QCheck2.Test.make ~name:"sha256: digests are 32 bytes and deterministic" ~count:200
    QCheck2.Gen.(string_size (0 -- 300))
    (fun s ->
      let d = Sha256.digest_string s in
      String.length d = 32 && String.equal d (Sha256.digest_string s))

let qcheck_distinct_inputs_distinct_digests =
  QCheck2.Test.make ~name:"sha256: no accidental collisions in samples" ~count:200
    QCheck2.Gen.(pair (string_size (0 -- 100)) (string_size (0 -- 100)))
    (fun (a, b) -> a = b || Sha256.digest_string a <> Sha256.digest_string b)

let qcheck_hmac_key_separation =
  QCheck2.Test.make ~name:"hmac: different keys give different macs" ~count:200
    QCheck2.Gen.(tup3 (string_size (1 -- 40)) (string_size (1 -- 40)) (string_size (0 -- 60)))
    (fun (k1, k2, msg) -> k1 = k2 || not (Hmac.equal (Hmac.mac ~key:k1 msg) (Hmac.mac ~key:k2 msg)))

(* RFC 2104 spelled out over one-shot digests: the reference the
   midstate-resuming MAC must match byte for byte. *)
let reference_hmac ~key message =
  let key = if String.length key > 64 then Sha256.digest_string key else key in
  let key = key ^ String.make (64 - String.length key) '\x00' in
  let pad byte = String.map (fun c -> Char.chr (Char.code c lxor byte)) key in
  Sha256.digest_string (pad 0x5c ^ Sha256.digest_string (pad 0x36 ^ message))

(* [cuts] positions (taken modulo the length) split [s] into parts. *)
let split_at_cuts s cuts =
  let len = String.length s in
  let cuts = List.sort_uniq compare (List.map (fun c -> c mod (len + 1)) cuts) in
  let rec go from = function
    | [] -> [ String.sub s from (len - from) ]
    | c :: rest -> String.sub s from (c - from) :: go c rest
  in
  go 0 cuts

let qcheck_hmac_midstate_identity =
  QCheck2.Test.make ~name:"hmac: keyed parts MAC = RFC 2104 reference" ~count:300
    QCheck2.Gen.(
      tup3 (string_size (0 -- 200)) (string_size (0 -- 300)) (list_size (0 -- 5) (0 -- 400)))
    (fun (key, message, cuts) ->
      let expected = reference_hmac ~key message in
      let k = Hmac.key key in
      String.equal expected (Hmac.mac ~key message)
      && String.equal expected (Hmac.mac_parts k (split_at_cuts message cuts))
      (* the midstates are not consumed by a MAC *)
      && String.equal expected (Hmac.mac_parts k [ message ]))

let qcheck_signature_roundtrip =
  QCheck2.Test.make ~name:"keychain: encode/decode preserves validity" ~count:100
    QCheck2.Gen.(pair (0 -- 3) (string_size (0 -- 60)))
    (fun (pid, payload) ->
      let chain = Keychain.create ~n:4 () in
      let s = Keychain.sign (Keychain.signer chain pid) payload in
      match Keychain.decode (Keychain.encode s) with
      | Some s' -> Keychain.valid chain ~author:pid payload s'
      | None -> false)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_digest_shape;
    QCheck_alcotest.to_alcotest qcheck_distinct_inputs_distinct_digests;
    QCheck_alcotest.to_alcotest qcheck_hmac_key_separation;
    QCheck_alcotest.to_alcotest qcheck_signature_roundtrip;
    Alcotest.test_case "sha256: empty string" `Quick test_sha256_empty;
    Alcotest.test_case "sha256: abc" `Quick test_sha256_abc;
    Alcotest.test_case "sha256: NIST two-block message" `Quick test_sha256_two_blocks;
    Alcotest.test_case "sha256: 56-byte padding boundary" `Quick
      test_sha256_448bit_boundary;
    Alcotest.test_case "sha256: one million a" `Slow test_sha256_million_a;
    Alcotest.test_case "sha256: incremental feeding" `Quick test_sha256_incremental;
    Alcotest.test_case "hmac: RFC 4231 case 1" `Quick test_hmac_rfc4231_1;
    Alcotest.test_case "hmac: RFC 4231 case 2" `Quick test_hmac_rfc4231_2;
    Alcotest.test_case "hmac: RFC 4231 case 3" `Quick test_hmac_rfc4231_3;
    Alcotest.test_case "hmac: RFC 4231 case 6 (long key)" `Quick test_hmac_rfc4231_6;
    Alcotest.test_case "hmac: keyed MAC = one-shot on RFC 4231" `Quick
      test_hmac_keyed_matches_one_shot;
    Alcotest.test_case "keychain: sign/verify" `Quick test_sign_verify;
    Alcotest.test_case "keychain: forgery rejected" `Quick test_forgery_rejected;
    Alcotest.test_case "keychain: cross-process rejected" `Quick
      test_cross_process_signature;
    Alcotest.test_case "keychain: wire codec round trip" `Quick test_signature_codec;
    Alcotest.test_case "keychain: garbage decode rejected" `Quick test_decode_garbage;
    Alcotest.test_case "keychain: hooks count operations" `Quick test_hooks_count;
    (* Alcotest numbers cases by position: append, don't insert. *)
    QCheck_alcotest.to_alcotest qcheck_hmac_midstate_identity;
    Alcotest.test_case "keychain: tags pinned" `Quick test_tag_pinned;
  ]

(* HMAC-SHA256 (RFC 2104), validated against the RFC 4231 test vectors.

   HMAC(K, m) = H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ m)).  Both padded keys
   fill exactly one block, so a [key] keeps the two hash states after
   absorbing them (its midstates) and a MAC resumes copies of them:
   per message, two compressions fewer than hashing the padded key
   again, and the same bytes out. *)

let block_size = 64

type key = { inner : Sha256.ctx; outer : Sha256.ctx }

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest_string key else key in
  if String.length key = block_size then key
  else key ^ String.make (block_size - String.length key) '\x00'

let xor_pad key byte =
  String.init block_size (fun i -> Char.chr (Char.code key.[i] lxor byte))

let midstate key byte =
  let ctx = Sha256.init () in
  Sha256.feed_string ctx (xor_pad key byte);
  ctx

let key secret =
  let secret = normalize_key secret in
  { inner = midstate secret 0x36; outer = midstate secret 0x5c }

let macs = Rdma_obs.Prof.counter "hmac.macs"

(* Finish a MAC of the concatenated [parts] from the two midstates,
   consuming them. *)
let finish { inner; outer } parts =
  Rdma_obs.Prof.bump macs 1;
  List.iter (Sha256.feed_string inner) parts;
  Sha256.feed_string outer (Sha256.finalize inner);
  Sha256.finalize outer

let mac_parts key parts =
  finish { inner = Sha256.copy key.inner; outer = Sha256.copy key.outer } parts

(* A fresh key is used once, so its midstates need no copies. *)
let mac ~key:secret message = finish (key secret) [ message ]

let mac_hex ~key message = Sha256.to_hex (mac ~key message)

(* Constant-time-style comparison; not security-critical in a simulation
   but cheap to do right. *)
let equal a b =
  String.length a = String.length b
  &&
  let diff = ref 0 in
  String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code b.[i])) a;
  !diff = 0

(* SHA-256, from scratch, following FIPS 180-4.

   Implemented on int32 words.  Validated in the test suite against the
   NIST example vectors ("abc", the 448-bit two-block message, the empty
   string, and the one-million-'a' message). *)

let k =
  [|
    0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl;
    0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l;
    0x243185bel; 0x550c7dc3l; 0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l;
    0xc19bf174l; 0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
    0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal; 0x983e5152l;
    0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
    0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl;
    0x53380d13l; 0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
    0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l; 0xd192e819l;
    0xd6990624l; 0xf40e3585l; 0x106aa070l; 0x19a4c116l; 0x1e376c08l;
    0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl;
    0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
    0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l;
  |]

type ctx = {
  h : int32 array; (* 8 working-state words *)
  block : Bytes.t; (* 64-byte block buffer *)
  mutable block_len : int;
  mutable total_len : int64; (* message length in bytes *)
  w : int32 array; (* 64-entry message schedule, reused across blocks *)
}

let init () =
  {
    h =
      [|
        0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl;
        0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l;
      |];
    block = Bytes.create 64;
    block_len = 0;
    total_len = 0L;
    w = Array.make 64 0l;
  }

(* An independent state that has absorbed what [ctx] has: HMAC resumes
   a per-key midstate this way instead of re-hashing the padded key.
   The message schedule is working storage of each compression, so the
   copy gets its own. *)
let copy ctx =
  {
    h = Array.copy ctx.h;
    block = Bytes.copy ctx.block;
    block_len = ctx.block_len;
    total_len = ctx.total_len;
    w = Array.make 64 0l;
  }

let ( +% ) = Int32.add

let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

let shr = Int32.shift_right_logical

let lxor3 a b c = Int32.logxor a (Int32.logxor b c)

let blocks = Rdma_obs.Prof.counter "sha256.blocks"

(* Compress the 64-byte block currently in [ctx.block].  One bump per
   block is the profiler's unit of hashing work: blocks, not digest
   calls, are what ROADMAP item 3's redundant-hashing hunt must count
   (a digest over an attached history hashes many blocks). *)
let compress ctx =
  Rdma_obs.Prof.bump blocks 1;
  let w = ctx.w in
  for i = 0 to 15 do
    w.(i) <- Bytes.get_int32_be ctx.block (i * 4)
  done;
  for i = 16 to 63 do
    let s0 = lxor3 (rotr w.(i - 15) 7) (rotr w.(i - 15) 18) (shr w.(i - 15) 3) in
    let s1 = lxor3 (rotr w.(i - 2) 17) (rotr w.(i - 2) 19) (shr w.(i - 2) 10) in
    w.(i) <- w.(i - 16) +% s0 +% w.(i - 7) +% s1
  done;
  let a = ref ctx.h.(0) and b = ref ctx.h.(1) and c = ref ctx.h.(2) in
  let d = ref ctx.h.(3) and e = ref ctx.h.(4) and f = ref ctx.h.(5) in
  let g = ref ctx.h.(6) and hh = ref ctx.h.(7) in
  for i = 0 to 63 do
    let s1 = lxor3 (rotr !e 6) (rotr !e 11) (rotr !e 25) in
    let ch = Int32.logxor (Int32.logand !e !f) (Int32.logand (Int32.lognot !e) !g) in
    let temp1 = !hh +% s1 +% ch +% k.(i) +% w.(i) in
    let s0 = lxor3 (rotr !a 2) (rotr !a 13) (rotr !a 22) in
    let maj =
      lxor3 (Int32.logand !a !b) (Int32.logand !a !c) (Int32.logand !b !c)
    in
    let temp2 = s0 +% maj in
    hh := !g;
    g := !f;
    f := !e;
    e := !d +% temp1;
    d := !c;
    c := !b;
    b := !a;
    a := temp1 +% temp2
  done;
  ctx.h.(0) <- ctx.h.(0) +% !a;
  ctx.h.(1) <- ctx.h.(1) +% !b;
  ctx.h.(2) <- ctx.h.(2) +% !c;
  ctx.h.(3) <- ctx.h.(3) +% !d;
  ctx.h.(4) <- ctx.h.(4) +% !e;
  ctx.h.(5) <- ctx.h.(5) +% !f;
  ctx.h.(6) <- ctx.h.(6) +% !g;
  ctx.h.(7) <- ctx.h.(7) +% !hh

let feed_bytes ctx data offset length =
  ctx.total_len <- Int64.add ctx.total_len (Int64.of_int length);
  let pos = ref offset in
  let remaining = ref length in
  while !remaining > 0 do
    let room = 64 - ctx.block_len in
    let chunk = min room !remaining in
    Bytes.blit data !pos ctx.block ctx.block_len chunk;
    ctx.block_len <- ctx.block_len + chunk;
    pos := !pos + chunk;
    remaining := !remaining - chunk;
    if ctx.block_len = 64 then begin
      compress ctx;
      ctx.block_len <- 0
    end
  done

let feed_string ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let finalize ctx =
  let bit_len = Int64.mul ctx.total_len 8L in
  (* Append 0x80, then zero padding, then the 64-bit length. *)
  let pad_len =
    let rem = (Int64.to_int (Int64.rem ctx.total_len 64L) + 1 + 8) mod 64 in
    if rem = 0 then 1 else 1 + (64 - rem)
  in
  let padding = Bytes.make pad_len '\x00' in
  Bytes.set padding 0 '\x80';
  feed_bytes ctx padding 0 pad_len;
  let length_block = Bytes.create 8 in
  Bytes.set_int64_be length_block 0 bit_len;
  (* Feeding the length must not re-count it in total_len; splice it in
     manually. *)
  Bytes.blit length_block 0 ctx.block ctx.block_len 8;
  ctx.block_len <- ctx.block_len + 8;
  assert (ctx.block_len = 64);
  compress ctx;
  ctx.block_len <- 0;
  let digest = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be digest (i * 4) ctx.h.(i)
  done;
  Bytes.unsafe_to_string digest

let digest_string s =
  let ctx = init () in
  feed_string ctx s;
  finalize ctx

let hex_digits = "0123456789abcdef"

let to_hex digest =
  let n = String.length digest in
  let hex = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let b = Char.code digest.[i] in
    Bytes.set hex (2 * i) hex_digits.[b lsr 4];
    Bytes.set hex ((2 * i) + 1) hex_digits.[b land 15]
  done;
  Bytes.unsafe_to_string hex

let hex_of_string s = to_hex (digest_string s)

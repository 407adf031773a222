(* The paper's signature primitives: sign(v) and sValid(p, v) (Section 3).

   Simulated unforgeability: each process receives a [signer] capability
   holding its own secret; the per-process secrets live only inside this
   module, so a Byzantine *program* in the simulation can sign only as
   itself.  Verification goes through the shared [t], which exposes no
   secrets.  Tags are HMAC-SHA256 over "<signer id>|<payload>". *)

type t = {
  (* per process: its secret's HMAC midstates, built on the first sign
     or verify that needs them, so a run that never signs hashes no
     more than the secrets themselves *)
  keys : Hmac.key Lazy.t array;
  mutable on_sign : int -> unit; (* receives the signer's pid *)
  mutable on_verify : ok:bool -> unit; (* receives the verdict *)
}

type signer = { pid : int; chain : t }

type signature = { author : int; tag : string }

let create ?(seed = 42) ~n () =
  let keys =
    Array.init n (fun i ->
        let secret = Sha256.digest_string (Printf.sprintf "secret-%d-%d" seed i) in
        lazy (Hmac.key secret))
  in
  { keys; on_sign = (fun _ -> ()); on_verify = (fun ~ok:_ -> ()) }

let set_hooks t ~on_sign ~on_verify =
  t.on_sign <- on_sign;
  t.on_verify <- on_verify

let signer t pid =
  if pid < 0 || pid >= Array.length t.keys then
    invalid_arg "Keychain.signer: no such process";
  { pid; chain = t }

(* The MAC'd message "<author>|<payload>", in parts: the hash absorbs
   them in turn, so the payload is never copied. *)
let tagged author payload = [ Int.to_string author; "|"; payload ]

let tag t author payload =
  Hmac.mac_parts (Lazy.force t.keys.(author)) (tagged author payload)

let signs = Rdma_obs.Prof.counter "crypto.signs"

let verifies = Rdma_obs.Prof.counter "crypto.verifies"

(* [sign]/[valid] are synchronous (no engine suspension inside), so a
   profiler scope here is a legal work-attribution frame: the SHA-256
   blocks of the HMAC land under crypto.sign / crypto.verify. *)
let sign signer payload =
  let chain = signer.chain in
  Rdma_obs.Prof.scope "crypto.sign" (fun () ->
      Rdma_obs.Prof.bump signs 1;
      chain.on_sign signer.pid;
      { author = signer.pid; tag = tag chain signer.pid payload })

(* A deliberately bogus signature claiming authorship by [author]; used by
   Byzantine behaviours in tests.  Verification rejects it (with
   overwhelming probability in the real world; with certainty here unless
   the forger guessed the HMAC). *)
let forge ~author payload =
  { author; tag = Hmac.mac_parts (Hmac.key "forged") (tagged author payload) }

let valid t ~author payload signature =
  Rdma_obs.Prof.scope "crypto.verify" (fun () ->
      Rdma_obs.Prof.bump verifies 1;
      let ok =
        signature.author = author && Hmac.equal signature.tag (tag t author payload)
      in
      t.on_verify ~ok;
      ok)

(* sValid(p, v) where the signature carries its claimed author. *)
let s_valid t payload signature = valid t ~author:signature.author payload signature

let author signature = signature.author

let tag_hex signature = Sha256.to_hex signature.tag

(* Wire encoding, so signatures can be embedded in signed histories. *)
let encode s = string_of_int s.author ^ ":" ^ Sha256.to_hex s.tag

let decode str =
  match String.index_opt str ':' with
  | None -> None
  | Some i -> (
      let author = int_of_string_opt (String.sub str 0 i) in
      let hex = String.sub str (i + 1) (String.length str - i - 1) in
      match author with
      | None -> None
      | Some author ->
          if String.length hex <> 64 then None
          else
            let unhex c =
              match c with
              | '0' .. '9' -> Char.code c - Char.code '0'
              | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
              | _ -> raise Exit
            in
            (try
               let tag =
                 String.init 32 (fun j ->
                     Char.chr ((unhex hex.[2 * j] lsl 4) lor unhex hex.[(2 * j) + 1]))
               in
               Some { author; tag }
             with Exit -> None))

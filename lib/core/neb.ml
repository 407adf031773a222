(* Non-equivocating broadcast (Algorithm 2).

   Each process p owns an SWMR region holding slots[p, k, q]: p's copy of
   the k-th message of q.  To broadcast its k-th message, p writes a
   signed (k, m) into slots[p, k, p].  To deliver q's k-th message, p:
   (1) reads slots[q, k, q]; retries later if ⊥, unsigned, or mis-keyed;
   (2) copies the value into its own slots[p, k, q];
   (3) reads slots[i, k, q] of every process i, and delivers only if none
       holds a validly-signed copy of a different k-th message — such a
       copy proves q equivocated, and q's message is never delivered.
       A copy is compared by its decoded message, not its bytes, so a
       Byzantine i that re-encodes q's signed slot cannot frame q.

   Slots are replicated over the m ≥ 2fM + 1 crash-prone memories with
   the Section 4.1 SWMR construction (module Swmr), which also defeats
   memory-level equivocation: a writer that plants different values on
   different replicas reads back as ⊥.

   Properties (Definition 1), each exercised in the tests:
   1. a correct broadcaster's messages are eventually delivered by every
      correct process;
   2. no two correct processes deliver different k-th messages from the
      same sender;
   3. delivery implies the (correct) sender broadcast exactly that
      message. *)

open Rdma_sim
open Rdma_mm
open Rdma_crypto
open Rdma_reg

(* [ns] namespaces a protocol instance: every region and signature is
   tagged with it, so several instances (e.g. the slots of a replicated
   log) can coexist on the same memories without cross-talk or
   cross-instance signature replay. *)
let region_of ?(ns = "") p = Printf.sprintf "%sneb.%d" ns p

let slot_reg_ns ~ns ~owner ~k ~src = Printf.sprintf "%ss.%d.%d.%d" ns owner k src

let slot_reg ~owner ~k ~src = slot_reg_ns ~ns:"" ~owner ~k ~src

(* The inverse of [slot_reg_ns] for one owner: does [reg] name
   slots[owner, k, src] for some 1 ≤ k ≤ max_seq and 0 ≤ src < n?  A
   field that is not [string_of_int] output ("01", "-0") names no
   slot. *)
let is_slot_reg ~ns ~owner ~n ~max_seq =
  let prefix = Printf.sprintf "%ss.%d." ns owner in
  let plen = String.length prefix in
  fun reg ->
    String.starts_with ~prefix reg
    &&
    match String.split_on_char '.' (String.sub reg plen (String.length reg - plen)) with
    | [ kf; srcf ] -> (
        match (Codec.int_of_field kf, Codec.int_of_field srcf) with
        | Some k, Some src -> 1 <= k && k <= max_seq && 0 <= src && src < n
        | _ -> false)
    | _ -> false

(* Region layout: process p's region holds slots[p, k, src] for every
   1 ≤ k ≤ max_seq and src < n.  [max_seq] bounds how many messages each
   process may broadcast in this instance (the paper's algorithm is
   unbounded).  A slot's cell is created when an operation first names
   it — an instance touches a few percent of its slots — and reads ⊥
   until written, as the paper's registers do. *)
let setup_regions cluster ?(ns = "") ~max_seq () =
  let n = Cluster.n cluster in
  for p = 0 to n - 1 do
    let registers =
      lazy
        (List.concat_map
           (fun k -> List.init n (fun src -> slot_reg_ns ~ns ~owner:p ~k:(k + 1) ~src))
           (List.init max_seq Fun.id))
    in
    Cluster.add_region_family_everywhere cluster ~name:(region_of ~ns p)
      ~perm:(Rdma_mem.Permission.swmr ~writer:p ~n)
      ~member:(is_slot_reg ~ns ~owner:p ~n ~max_seq)
      ~registers
  done

let slot_payload ?(ns = "") ~k msg = Codec.join3 ns (Codec.int_field k) msg

let encode_slot ~k ~msg ~signature =
  Codec.join3 (Codec.int_field k) msg (Keychain.encode signature)

let decode_slot s =
  match Codec.split3 s with
  | None -> None
  | Some (kf, msg, sig_enc) -> (
      match (Codec.int_of_field kf, Keychain.decode sig_enc) with
      | Some k, Some signature -> Some (k, msg, signature)
      | _ -> None)

type config = {
  ns : string; (* instance namespace; "" for standalone use *)
  max_seq : int;
  poll_interval : float;
  give_up_at : float; (* virtual time after which the poller stops *)
}

let default_config = { ns = ""; max_seq = 64; poll_interval = 2.0; give_up_at = 3000.0 }

type t = {
  me : int;
  n : int;
  engine : Engine.t;
  chain : Keychain.t;
  signer : Keychain.signer;
  cfg : config;
  own : Swmr.handle; (* my region *)
  regions : Swmr.handle array; (* everyone's region, readable by me *)
  deliver : k:int -> msg:string -> src:int -> unit;
  last : int array; (* per sender: last delivered sequence number *)
  convicted : bool array; (* proven equivocators: never delivered again *)
  mutable next_k : int;
  mutable stopped : bool;
}

let create (ctx : _ Cluster.ctx) ?(cfg = default_config) ~deliver () =
  let n = ctx.Cluster.cluster_n in
  let me = ctx.Cluster.pid in
  let regions =
    Array.init n (fun p ->
        Swmr.attach ~client:ctx.Cluster.client ~region:(region_of ~ns:cfg.ns p))
  in
  {
    me;
    n;
    engine = ctx.Cluster.ctx_engine;
    chain = ctx.Cluster.chain;
    signer = ctx.Cluster.signer;
    cfg;
    own = regions.(me);
    regions;
    deliver;
    last = Array.make n 0;
    convicted = Array.make n false;
    next_k = 0;
    stopped = false;
  }

let stop t = t.stopped <- true

(* broadcast(k, m): write sign((k, m)) into slots[me, k, me].  Blocking
   (one replicated write = 2 delays); sequence numbers auto-increment. *)
let broadcast t msg =
  t.next_k <- t.next_k + 1;
  let k = t.next_k in
  if k > t.cfg.max_seq then invalid_arg "Neb.broadcast: max_seq exhausted";
  let signature = Keychain.sign t.signer (slot_payload ~ns:t.cfg.ns ~k msg) in
  ignore
    (Swmr.write t.own
       ~reg:(slot_reg_ns ~ns:t.cfg.ns ~owner:t.me ~k ~src:t.me)
       (encode_slot ~k ~msg ~signature))

(* One delivery attempt for the next message of [src] (try_deliver in
   Algorithm 2).  Returns true if something was delivered. *)
let try_deliver t src =
  let k = t.last.(src) + 1 in
  if k > t.cfg.max_seq || t.convicted.(src) then false
  else begin
    match Swmr.read t.regions.(src) ~reg:(slot_reg_ns ~ns:t.cfg.ns ~owner:src ~k ~src) with
    | None -> false (* src has not written (or replicas disagree); retry *)
    | Some raw -> (
        match decode_slot raw with
        | None -> false (* garbage: src is Byzantine; retry later *)
        | Some (key, msg, signature) ->
            if
              key <> k
              || not
                   (Keychain.valid t.chain ~author:src
                      (slot_payload ~ns:t.cfg.ns ~k:key msg)
                      signature)
            then false
            else begin
              (* copy to our own slot, then cross-check every copy *)
              ignore
                (Swmr.write t.own ~reg:(slot_reg_ns ~ns:t.cfg.ns ~owner:t.me ~k ~src) raw);
              let conflict = ref false in
              for i = 0 to t.n - 1 do
                if not !conflict then
                  match
                    Swmr.read t.regions.(i) ~reg:(slot_reg_ns ~ns:t.cfg.ns ~owner:i ~k ~src)
                  with
                  | None -> ()
                  | Some other when String.equal other raw -> ()
                  | Some other -> (
                      match decode_slot other with
                      | Some (other_k, other_msg, other_sig)
                        when other_k = k
                             && (not (String.equal other_msg msg))
                             && Keychain.valid t.chain ~author:src
                                  (slot_payload ~ns:t.cfg.ns ~k:other_k other_msg)
                                  other_sig ->
                          (* a validly-signed copy of a different message:
                             src signed two different k-th messages —
                             equivocation *)
                          conflict := true
                      | _ -> () (* unsigned noise, or the same message re-encoded *))
              done;
              if !conflict then begin
                t.convicted.(src) <- true;
                false
              end
              else begin
                t.deliver ~k ~msg ~src;
                t.last.(src) <- k;
                true
              end
            end)
  end

(* The delivery daemon: round-robin try_deliver until stopped. *)
let poller t =
  while
    (not t.stopped)
    && Engine.now t.engine < t.cfg.give_up_at
  do
    let delivered_any = ref false in
    for src = 0 to t.n - 1 do
      if not t.stopped then
        while (not t.stopped) && try_deliver t src do
          delivered_any := true
        done
    done;
    if not !delivered_any then Engine.sleep t.cfg.poll_interval
  done

let spawn_poller (ctx : _ Cluster.ctx) t =
  ctx.Cluster.spawn_sub "neb.poller" (fun () -> poller t)

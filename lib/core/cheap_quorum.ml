(* Cheap Quorum (Algorithms 4 and 5): the 2-deciding Byzantine fast path.

   A fixed leader ℓ = p0 signs its proposal and writes it to the leader
   region Value[ℓ]; if the write succeeds (nobody revoked its write
   permission) the leader decides immediately — two delays, one
   signature.  Followers copy the leader's value into their own SWMR
   regions, countersign it, assemble *unanimity proofs* (n signed copies)
   and decide once they see n valid proofs.  Anything suspicious — a
   timeout, a bad signature, a panic flag — sends a process into panic
   mode: it revokes the leader's write permission (the only permission
   change the legalChange policy admits), and aborts with the best value
   it can justify, together with evidence that Preferential Paxos later
   ranks by Definition 3:

     T — a correct unanimity proof,
     M — the leader's signature on the value,
     B — the process's own input, no evidence.

   Cheap Quorum is not a complete consensus algorithm: its abort outputs
   feed Fast & Robust (Section 4.3).  Registers are replicated over the
   m ≥ 2fM + 1 memories (module Swmr), so memory crashes are tolerated
   and a leader that equivocates *across memory replicas* reads back as
   ⊥ at the followers. *)

open Rdma_sim
open Rdma_mem
open Rdma_mm
open Rdma_crypto
open Rdma_reg

let leader = 0

(* [ns] namespaces an instance (e.g. one slot of a BFT log): regions and
   signature payloads are tagged, so neither values nor unanimity proofs
   can be replayed across instances. *)
let leader_region_ns ns = ns ^ "cq.L"

let leader_region = leader_region_ns ""

let leader_value_reg = "cq.L.value"

let region_of ?(ns = "") p = Printf.sprintf "%scq.%d" ns p

let value_reg p = Printf.sprintf "cq.%d.value" p

let panic_reg p = Printf.sprintf "cq.%d.panic" p

let proof_reg p = Printf.sprintf "cq.%d.proof" p

(* What each process signs: the proposed value under a protocol tag and
   the instance namespace. *)
let value_payload ?(ns = "") v = Codec.join3 "cqv" ns v

(* Value[ℓ]: the value and the leader's signature. *)
let encode_leader_value ~value ~sig_l =
  Codec.join2 value (Keychain.encode sig_l)

let decode_leader_value s =
  match Codec.split2 s with
  | None -> None
  | Some (value, sig_enc) ->
      Option.map (fun sig_l -> (value, sig_l)) (Keychain.decode sig_enc)

(* Value[p], p a follower: value, leader signature, p's countersignature. *)
let encode_copy ~value ~sig_l ~sig_p =
  Codec.join3 value (Keychain.encode sig_l) (Keychain.encode sig_p)

let decode_copy s =
  match Codec.split3 s with
  | None -> None
  | Some (value, sl, sp) -> (
      match (Keychain.decode sl, Keychain.decode sp) with
      | Some sig_l, Some sig_p -> Some (value, sig_l, sig_p)
      | _ -> None)

(* A unanimity proof: the value plus n countersignatures, one per
   process. *)
let encode_proof ~value ~sigs =
  Codec.join (value :: List.map (fun (q, s) -> Codec.join2 (Codec.int_field q) (Keychain.encode s)) sigs)

let decode_proof s =
  match Codec.split s with
  | None | Some [] -> None
  | Some (value :: rest) ->
      let sigs =
        List.filter_map
          (fun field ->
            match Codec.split2 field with
            | None -> None
            | Some (qf, senc) -> (
                match (Codec.int_of_field qf, Keychain.decode senc) with
                | Some q, Some s -> Some (q, s)
                | _ -> None))
          rest
      in
      if List.length sigs = List.length rest then Some (value, sigs) else None

(* verifyProof: n distinct signers, every signature valid for the same
   value (Definition 3's "correct unanimity proof"). *)
let verify_proof ?(ns = "") chain ~n proof =
  match decode_proof proof with
  | None -> None
  | Some (value, sigs) ->
      let signers = List.sort_uniq compare (List.map fst sigs) in
      if
        List.length sigs = n
        && List.length signers = n
        && List.for_all
             (fun (q, s) -> Keychain.valid chain ~author:q (value_payload ~ns value) s)
             sigs
      then Some value
      else None

(* The only legal permission change (Algorithm 5 line 3): anyone may make
   the leader region read-only for everybody. *)
let legal_change ~n : Permission.legal_change =
 fun ~pid:_ ~region ~current:_ ~requested ->
  let suffix = "cq.L" in
  let lr = String.length region and ls = String.length suffix in
  lr >= ls
  && String.sub region (lr - ls) ls = suffix
  && Permission.equal requested (Permission.read_all ~n)

let setup_regions ?(ns = "") cluster =
  let n = Cluster.n cluster in
  Cluster.add_region_everywhere cluster
    ~name:(leader_region_ns ns)
    ~perm:(Permission.swmr ~writer:leader ~n)
    ~registers:[ ns ^ leader_value_reg ];
  for p = 0 to n - 1 do
    Cluster.add_region_everywhere cluster ~name:(region_of ~ns p)
      ~perm:(Permission.swmr ~writer:p ~n)
      ~registers:[ ns ^ value_reg p; ns ^ panic_reg p; ns ^ proof_reg p ]
  done

type evidence =
  | Unanimity of string (* encoded proof *)
  | Leader_signed of Keychain.signature
  | Bare

type outcome =
  | Decided of { value : string; at : float; proof : evidence }
  | Aborted of { value : string; proof : evidence }

type config = {
  ns : string; (* instance namespace; "" for standalone use *)
  fast_timeout : float;
      (* upper bound on common-case communication delays (footnote 3) *)
}

let default_config = { ns = ""; fast_timeout = 120.0 }

(* Pause between two scans of the other processes' registers. *)
let check_interval = 1.0

type state = {
  ctx : string Cluster.ctx;
  cfg : config;
  n : int;
  me : int;
  input : string;
  chain : Keychain.t;
  own : Swmr.handle;
  regions : Swmr.handle array;
  lregion : Swmr.handle;
  deadline : float;
}

let make_state (ctx : _ Cluster.ctx) cfg ~input =
  let n = ctx.Cluster.cluster_n in
  let ns = cfg.ns in
  {
    ctx;
    cfg;
    n;
    me = ctx.Cluster.pid;
    input;
    chain = ctx.Cluster.chain;
    own =
      Swmr.attach ~client:ctx.Cluster.client ~region:(region_of ~ns ctx.Cluster.pid);
    regions =
      Array.init n (fun p ->
          Swmr.attach ~client:ctx.Cluster.client ~region:(region_of ~ns p));
    lregion = Swmr.attach ~client:ctx.Cluster.client ~region:(leader_region_ns ns);
    deadline = Engine.now ctx.Cluster.ctx_engine +. cfg.fast_timeout;
  }

let someone_panicked st =
  let rec check q =
    if q >= st.n then false
    else if Swmr.read st.regions.(q) ~reg:(st.cfg.ns ^ panic_reg q) <> None then true
    else check (q + 1)
  in
  check 0

(* The fast path's one waiting loop: give up ([None]) once the fast path
   expired or someone panicked; otherwise run [step], and while it finds
   nothing ([None]) sleep [check_interval] and try again. *)
let rec poll st step =
  if Engine.now st.ctx.Cluster.ctx_engine > st.deadline || someone_panicked st then None
  else
    match step () with
    | Some _ as found -> found
    | None ->
        Engine.sleep check_interval;
        poll st step

(* The leader's proposal in [lv], if its signature checks out. *)
let leader_value st lv =
  match decode_leader_value lv with
  | Some (value, sig_l)
    when Keychain.valid st.chain ~author:leader (value_payload ~ns:st.cfg.ns value) sig_l
    ->
      Some (value, sig_l)
  | _ -> None

(* Wait until every process has copied and countersigned [value], then
   write the unanimity proof those copies form to our region and return
   it. *)
let unanimity st ~value =
  let proof =
    poll st (fun () ->
        let copies =
          List.init st.n (fun q ->
              match Swmr.read st.regions.(q) ~reg:(st.cfg.ns ^ value_reg q) with
              | Some c -> (
                  match decode_copy c with
                  | Some (v, _, sig_q)
                    when v = value
                         && Keychain.author sig_q = q
                         && Keychain.valid st.chain ~author:q
                              (value_payload ~ns:st.cfg.ns v)
                              sig_q ->
                      Some (q, sig_q)
                  | _ -> None)
              | None -> None)
        in
        if List.for_all Option.is_some copies then
          Some (encode_proof ~value ~sigs:(List.filter_map Fun.id copies))
        else None)
  in
  Option.iter
    (fun proof -> ignore (Swmr.write st.own ~reg:(st.cfg.ns ^ proof_reg st.me) proof))
    proof;
  proof

(* Panic mode (Algorithm 5). *)
let panic_mode st =
  ignore (Swmr.write st.own ~reg:(st.cfg.ns ^ panic_reg st.me) "1");
  Swmr.change_permission st.lregion ~perm:(Permission.read_all ~n:st.n);
  let own_value = Swmr.read st.own ~reg:(st.cfg.ns ^ value_reg st.me) in
  let own_proof = Swmr.read st.own ~reg:(st.cfg.ns ^ proof_reg st.me) in
  match own_value with
  | Some copy -> (
      match decode_copy copy with
      | Some (value, sig_l, _) -> (
          (* abort with our replicated value; attach the unanimity proof
             if we managed to write one *)
          match own_proof with
          | Some proof when verify_proof ~ns:st.cfg.ns st.chain ~n:st.n proof = Some value ->
              Aborted { value; proof = Unanimity proof }
          | _ -> Aborted { value; proof = Leader_signed sig_l })
      | None -> Aborted { value = st.input; proof = Bare })
  | None -> (
      match
        Option.bind
          (Swmr.read st.lregion ~reg:(st.cfg.ns ^ leader_value_reg))
          (leader_value st)
      with
      | Some (value, sig_l) -> Aborted { value; proof = Leader_signed sig_l }
      | None -> Aborted { value = st.input; proof = Bare })

(* Leader (Algorithm 4, lines 1–6): sign, write, decide on ack. *)
let run_leader st =
  let sig_l = Keychain.sign st.ctx.Cluster.signer (value_payload ~ns:st.cfg.ns st.input) in
  let status =
    Swmr.write st.lregion
      ~reg:(st.cfg.ns ^ leader_value_reg)
      (encode_leader_value ~value:st.input ~sig_l)
  in
  if status = Memory.Nak then panic_mode st
  else begin
    let at = Engine.now st.ctx.Cluster.ctx_engine in
    (* The leader then behaves as a follower so the others can assemble
       their unanimity proofs: it replicates the value in Value[p0] and
       publishes its proof. *)
    Decided { value = st.input; at; proof = Leader_signed sig_l }
  end

(* After the leader decision, keep helping the followers: write our copy
   and proof like any follower would. *)
let leader_helper st ~sig_l =
  let value = st.input in
  (* the leader's countersignature is its original signature *)
  ignore
    (Swmr.write st.own
       ~reg:(st.cfg.ns ^ value_reg st.me)
       (encode_copy ~value ~sig_l ~sig_p:sig_l));
  ignore (unanimity st ~value)

(* Follower (Algorithm 4, lines 8–23). *)
let run_follower st =
  (* Wait for the leader's signed proposal; garbage or a bad signature
     in the leader region means the leader is Byzantine. *)
  let proposal =
    poll st (fun () ->
        Option.map (leader_value st)
          (Swmr.read st.lregion ~reg:(st.cfg.ns ^ leader_value_reg)))
  in
  match Option.join proposal with
  | None -> panic_mode st
  | Some (value, sig_l) -> (
      (* Countersign and replicate. *)
      let sig_me = Keychain.sign st.ctx.Cluster.signer (value_payload ~ns:st.cfg.ns value) in
      ignore
        (Swmr.write st.own
           ~reg:(st.cfg.ns ^ value_reg st.me)
           (encode_copy ~value ~sig_l ~sig_p:sig_me));
      (* Wait for all n copies, assemble and publish the unanimity proof,
         then wait for n valid proofs. *)
      match unanimity st ~value with
      | None -> panic_mode st
      | Some proof -> (
          let all_proofs_valid =
            poll st (fun () ->
                let ok =
                  List.init st.n (fun q ->
                      match Swmr.read st.regions.(q) ~reg:(st.cfg.ns ^ proof_reg q) with
                      | Some p -> verify_proof ~ns:st.cfg.ns st.chain ~n:st.n p = Some value
                      | None -> false)
                in
                if List.for_all Fun.id ok then Some () else None)
          in
          match all_proofs_valid with
          | Some () ->
              Decided
                {
                  value;
                  at = Engine.now st.ctx.Cluster.ctx_engine;
                  proof = Unanimity proof;
                }
          | None -> panic_mode st))

(* Run one process's Cheap Quorum participation to its outcome.  A
   deciding leader returns immediately (its fast decision is complete)
   and keeps helping the followers assemble unanimity proofs from a
   background fiber — so a caller composing many instances (the BFT log)
   can move on after two delays. *)
let participate (ctx : _ Cluster.ctx) ?(cfg = default_config) ~input () =
  let st = make_state ctx cfg ~input in
  if st.me = leader then begin
    match run_leader st with
    | Decided { value; at; proof = Leader_signed sig_l } ->
        ctx.Cluster.spawn_sub
          (cfg.ns ^ "cq.helper")
          (fun () -> leader_helper st ~sig_l);
        Decided { value; at; proof = Leader_signed sig_l }
    | outcome -> outcome
  end
  else run_follower st

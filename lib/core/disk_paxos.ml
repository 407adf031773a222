(* Disk Paxos (Gafni & Lamport) — the shared-memory baseline.

   n ≥ fP + 1 processes and m ≥ 2fM + 1 memories ("disks"), *static*
   permissions: every process can read and write every register (the disk
   model of Section 3).  The paper's comparison point: same resilience as
   Protected Memory Paxos, but a leader needs at least FOUR delays in the
   common case — after writing its block it must read the disks again to
   check that no rival overwrote a higher ballot, precisely the read that
   dynamic permissions let Protected Memory Paxos skip (Section 5.1,
   Theorem 6.1).

   Each disk holds one block per process: dblock[p] = (mbal, bal, inp),
   in the bytes of a Protected Memory Paxos slot (minProp, accProp,
   value).
   A round: write your block to every disk, then read everyone else's
   blocks from every disk; proceed when a majority of disks completed
   both; abort the round if any block shows a higher mbal.  Phase 1
   establishes the ballot and picks the value; phase 2 commits it.  A
   leader that owns the initial ballot skips phase 1 (the standard
   common-case optimization) — it still cannot skip the phase-2 read.

   Decisions are disseminated through the disks themselves (a "decided"
   block), keeping this algorithm purely shared-memory. *)

open Rdma_sim
open Rdma_mem
open Rdma_mm

let region = "disk"

let dblock_reg q = Printf.sprintf "dblock.%d" q

let decided_reg q = Printf.sprintf "decided.%d" q

(* Proposer retry budget; keeps failing runs finite. *)
let max_rounds = 64

(* Followers poll the decided blocks every [poll_interval] delays, at
   most [max_polls] times. *)
let poll_interval = 5.0

let max_polls = 400

let setup_regions cluster =
  let n = Cluster.n cluster in
  let registers =
    List.init n dblock_reg @ List.init n decided_reg
  in
  Cluster.add_region_everywhere cluster ~name:region
    ~perm:(Permission.all_readwrite ~n) ~registers

(* One round trip to disk [mem]: write own block, then read the blocks of
   every other process in one batched read. *)
type disk_round = Disk_ok of (int * int * string) option array | Disk_failed

let disk_round_chain (ctx : _ Cluster.ctx) ~mem ~block result =
  let n = ctx.Cluster.cluster_n in
  let me = ctx.Cluster.pid in
  let client = ctx.Cluster.client in
  let w = Memclient.write client ~mem ~region ~reg:(dblock_reg me) block in
  match w with
  | Memory.Nak -> Ivar.fill result Disk_failed
  | Memory.Ack -> (
      let others = List.filter (fun q -> q <> me) (List.init n Fun.id) in
      let r =
        Ivar.await
          (Memory.read_many_async
             (Memclient.mem client mem)
             ~from:me ~region
             ~regs:(List.map dblock_reg others))
      in
      match r with
      | Memory.Read_many_nak -> Ivar.fill result Disk_failed
      | Memory.Read_many values ->
          let info = Array.make n None in
          List.iteri
            (fun idx q ->
              info.(q) <- Option.bind values.(idx) Protected_paxos.decode_slot)
            others;
          Ivar.fill result (Disk_ok info))
[@@simlint.allow
  "F1 disk paxos self-fences: the Ack branch immediately issues an \
   awaited same-QP batched read-back, which orders behind this write \
   under every model, so by the time the round returns the write is \
   remotely visible (EXPERIMENTS.md W2)"]

(* Publish the decision on the disks so followers can learn it without
   messages; best effort (majority ack). *)
let publish_decision (ctx : _ Cluster.ctx) value =
  ignore
    (Memclient.write_quorum ctx.Cluster.client ~region
       ~reg:(decided_reg ctx.Cluster.pid) value)

(* Followers poll the decided blocks, rotating over the disks (a decided
   value reaches a majority of them, so rotation finds it). *)
let poller (ctx : _ Cluster.ctx) decision =
  let n = ctx.Cluster.cluster_n in
  let m = ctx.Cluster.cluster_m in
  let me = ctx.Cluster.pid in
  let all_decided = List.init n decided_reg in
  let polls = ref 0 in
  let continue = ref true in
  while !continue do
    if Ivar.is_full decision then continue := false
    else begin
      incr polls;
      if !polls > max_polls then continue := false
      else begin
        let disk = Memclient.mem ctx.Cluster.client (!polls mod m) in
        let response =
          Ivar.await_timeout
            (Memory.read_many_async disk ~from:me ~region ~regs:all_decided)
            (2.0 *. poll_interval)
        in
        let found =
          match response with
          | Some (Memory.Read_many values) ->
              Array.fold_left
                (fun acc v -> match acc with Some _ -> acc | None -> v)
                None values
          | _ -> None
        in
        match found with
        | Some v ->
            Report.decide ctx.Cluster.ctx_engine ~pid:me decision v;
            continue := false
        | None -> Engine.sleep poll_interval
      end
    end
  done

let proposer (ctx : _ Cluster.ctx) ~input decision =
  let n = ctx.Cluster.cluster_n in
  let m = ctx.Cluster.cluster_m in
  let me = ctx.Cluster.pid in
  if m = 0 then invalid_arg "Disk_paxos: no memories";
  let quorum = Memclient.majority ctx.Cluster.client in
  let round = ref 0 in
  let bal = ref 0 in
  let inp = ref input in
  let continue = ref true in
  (* Run one write+read-all round on every disk; [Some info] on success
     with the merged view of all blocks, [None] if a higher mbal was seen
     or too many disk chains failed. *)
  let run_round ~mbal ~block =
    let chains = Array.init m (fun _ -> Ivar.create ()) in
    for i = 0 to m - 1 do
      ctx.Cluster.spawn_sub
        (Printf.sprintf "disk.chain%d" i)
        (fun () -> disk_round_chain ctx ~mem:i ~block chains.(i))
    done;
    let completed = Par.await_k chains quorum in
    if List.exists (fun (_, r) -> r = Disk_failed) completed then None
    else begin
      let merged = Array.make n None in
      let higher = ref false in
      List.iter
        (fun (_, r) ->
          match r with
          | Disk_failed -> ()
          | Disk_ok info ->
              Array.iteri
                (fun q blk ->
                  match blk with
                  | None -> ()
                  | Some (mb, b, v) ->
                      if mb > mbal then higher := true;
                      (match merged.(q) with
                      | Some (_, b0, _) when b0 >= b -> ()
                      | _ -> merged.(q) <- Some (mb, b, v)))
                info)
        completed;
      if !higher then None else Some merged
    end
  in
  while !continue do
    Omega.wait_until_leader ctx.Cluster.ctx_omega ~me;
    if Ivar.is_full decision then continue := false
    else begin
      incr round;
      if !round > max_rounds then continue := false
      else begin
        let mbal = Paxos.ballot ~n ~round:!round ~pid:me in
        (* Phase 1 — skipped when p0 still owns the initial ballot. *)
        let phase1_ok =
          if me = 0 && !round = 1 then true
          else
            match
              run_round ~mbal
                ~block:(Protected_paxos.encode_slot ~min_prop:mbal ~acc_prop:!bal ~value:!inp)
            with
            | None -> false
            | Some merged ->
                Option.iter
                  (fun v -> inp := v)
                  (Paxos.highest_accepted
                     (List.filter_map
                        (Option.map (fun (_, b, v) -> (b, v)))
                        (Array.to_list merged)));
                true
        in
        if phase1_ok then begin
          (* Phase 2: commit (mbal, mbal, inp); the read-back in the round
             is what makes Disk Paxos 4-deciding instead of 2. *)
          bal := mbal;
          match
            run_round ~mbal
              ~block:(Protected_paxos.encode_slot ~min_prop:mbal ~acc_prop:mbal ~value:!inp)
          with
          | None -> ()
          | Some _ ->
              Report.decide ctx.Cluster.ctx_engine ~pid:me decision !inp;
              publish_decision ctx !inp;
              continue := false
        end
      end
    end
  done

let spawn cluster pid input =
  let decision = Ivar.create () in
  Cluster.spawn cluster ~pid (fun ctx ->
      ctx.Cluster.spawn_sub "disk.poller" (fun () -> poller ctx decision);
      proposer ctx ~input decision);
  fun () -> Ivar.peek decision

let run ?(seed = 1) ?faults ?prepare ~n ~m ~inputs () =
  fst
    (Instance.decide ~algorithm:"disk-paxos" ~setup:setup_regions ?faults
       ?prepare ~seed ~n ~m ~inputs ~spawn ())

(* Velos-style one-sided Paxos (cf. "Velos: One-sided Paxos for RDMA
   applications", arXiv:2106.08676) — the opposite corner of the design
   space from the Mu-style pmp log, on the same {!Replicated_log} core:

   - Replicas are PASSIVE: followers never receive a Commit message.
     The leader replicates by one-sided writes into a region on every
     memory; followers learn committed entries by polling a QUORUM of
     memories and trusting the commit watermark (below).

   - An append is ONE batched write per memory carrying the new entry
     AND the watermark covering the previous one, so in steady state
     commitment costs the same two delays as PMP but followers need no
     network traffic at all to stay current.

   - Failover swaps the exclusive write permission (the paper's
     permission discipline, reused as Velos's "ownership change") and
     reconstructs the leader state entirely from replica memory.

   - Leader LEASES on virtual time: a leader holding a quorum-acked
     lease serves linearizable reads from local state with ZERO memory
     operations (asserted via the [mem.ops.issued] perf counter).  A
     new leader waits out the maximum lease expiry it read before
     serving anything, so a deposed-but-leased leader can never answer
     a read that misses a newer committed write.

   Commit watermark safety.  The leader only publishes [commit = w]
   after entry w was all-acked by a write quorum, and a fence is issued
   to every memory between consecutive batches.  Hence per memory: if
   [commit = w] (written by leader L) is APPLIED there, every one of
   L's entry writes 1..w is applied there too — under Strict trivially
   (QP FIFO), under Completion_lag/Reorder_qp because the fence is an
   ordering barrier in the QP stream whether or not anyone awaits it.
   A follower therefore adopts the reply with the HIGHEST watermark and
   applies that same reply's entries up to it; committed slots carry
   the same command in every term (recovery adopts the committed
   prefix), so the stored values are safe regardless of which leader's
   rewrite is visible.

   Lease safety on virtual time.  There is one global virtual clock, so
   "holder's expiry" and "successor's wait" are the same timeline — the
   skew term of the real-world argument vanishes.  A lease counts only
   once its write is all-acked by a quorum; its stored expiry equals
   the holder's local [leased_until]; a successor's recovery starts by
   swapping permissions, which drains in-flight writes at each memory
   before its reads, so the successor's quorum read intersects every
   lease quorum and the max expiry it sees bounds every valid lease. *)

open Rdma_sim
open Rdma_mem
open Rdma_mm
open Rdma_obs
open Rdma_consensus
module R = Replicated_log

let region = "velos"

(* The commit watermark: highest index the current leader has seen
   all-acked by a write quorum.  Monotone per reign; across reigns a
   new leader republishes [max] of what it read (see [adopt]). *)
let commit_reg = "commit"

(* The lease register holds [term] and the virtual-time expiry the
   holder promised itself; it doubles as the reign proof. *)
let encode_lease ~term ~until =
  (* Virtual times are floats; "%h" is exact and round-trips. *)
  Codec.join2 (Codec.int_field term) (Printf.sprintf "%h" until)

let decode_lease s =
  match Codec.split2 s with
  | None -> None
  | Some (tf, uf) -> (
      match (Codec.int_of_field tf, float_of_string_opt uf) with
      | Some term, Some until -> Some (term, until)
      | _ -> None)

let header ~term ~until ~committed =
  [
    (commit_reg, Some (Codec.int_field committed));
    (R.lease_reg, Some (encode_lease ~term ~until));
  ]

type ext = {
  mutable zombie : bool; (* lease_violation: stale server already spawned *)
  mutable published : int; (* the watermark this reign last published *)
  mutable leased_until : float; (* this reign's quorum-acked lease expiry *)
}

(* [anti_entropy_every] is the shared "how eagerly do followers chase
   missed commits" knob: for velos it IS the poll interval (0. = the
   default rate — polling cannot be turned off, it is the only way
   followers learn). *)
let poll_every (cfg : Consensus_engine.config) =
  if cfg.anti_entropy_every > 0.0 then cfg.anti_entropy_every else 5.0

(* {2 The passive learner}

   Every replica polls a quorum of memories for the checkpoint, the
   commit watermark and a window of entries above its applied index.
   It adopts the reply carrying the HIGHEST watermark: by the fence
   discipline (header comment) that same memory has applied every
   committed entry the watermark covers, so no cross-reply merge is
   needed — one-sided learning from a single coherent snapshot. *)
let poll_window = 8

let poll_once (ctx : _ Cluster.ctx) (r : ext R.replica) =
  let cfg = r.cfg in
  let quorum = Memclient.majority ctx.Cluster.client in
  let base = r.applied_up_to in
  let width = min poll_window (cfg.max_entries - base) in
  let regs =
    R.ckpt_reg :: commit_reg :: List.init width (fun i -> R.entry_reg (base + i + 1))
  in
  let client = ctx.Cluster.client in
  let reads =
    Array.init ctx.Cluster.cluster_m (fun i ->
        Memory.read_many_async (Memclient.mem client i) ~from:r.pid ~region ~regs)
  in
  let completed = Par.await_k_timeout reads quorum (2.0 *. poll_every cfg) in
  let ok =
    List.filter_map
      (fun (i, v) ->
        match v with
        | Memory.Read_many values -> Some (i, values)
        | Memory.Read_many_nak -> None)
      completed
  in
  (* A nak'd chain (restarted memory) does not count towards the read
     quorum: the watermark argument needs a true quorum so it is
     guaranteed to intersect every write quorum. *)
  if List.length ok >= quorum then begin
    let watermark values =
      match Array.length values with
      | 0 | 1 -> 0
      | _ -> (
          match Option.bind values.(1) Codec.int_of_field with
          | Some w -> w
          | None -> 0)
    in
    (* Deterministic best pick: highest watermark, lowest memory id. *)
    let best =
      List.fold_left
        (fun acc (i, values) ->
          let w = watermark values in
          match acc with
          | Some (_, bw, bi) when bw > w || (bw = w && bi < i) -> acc
          | _ -> Some (values, w, i))
        None ok
    in
    match best with
    | None -> ()
    | Some (values, w, _) ->
        (* Checkpoint first: it may cover truncated entries below the
           window.  It holds the whole committed prefix, so it is split
           only when its index is past what this replica applied. *)
        let ahead s =
          match R.ckpt_index s with
          | Some up_to when up_to > r.applied_up_to -> R.decode_ckpt s
          | _ -> None
        in
        (match Option.bind values.(0) ahead with
        | Some (up_to, entries) ->
            List.iteri
              (fun i stored ->
                let index = i + 1 in
                if index > r.applied_up_to && index <= up_to then
                  R.apply_stored r ~index stored)
              entries
        | None -> ());
        (* Then the window from the same reply, up to its watermark. *)
        for j = 2 to Array.length values - 1 do
          let index = base + j - 1 in
          if index <= w && index = r.applied_up_to + 1 then
            match Option.bind values.(j) R.decode_entry with
            | Some (_, stored) -> R.apply_stored r ~index stored
            | None -> ()
        done
  end

let poll_loop (ctx : _ Cluster.ctx) (r : ext R.replica) =
  while (not r.stopped) && Engine.now ctx.Cluster.ctx_engine < r.cfg.serve_until do
    Engine.sleep (poll_every r.cfg);
    (* The leader is the writer: it learns at append time and must not
       race its own in-flight rewrites with reads. *)
    if
      (not r.stopped)
      && Omega.leader ctx.Cluster.ctx_omega <> r.pid
      && Engine.now ctx.Cluster.ctx_engine < r.cfg.serve_until
    then poll_once ctx r
  done

(* {2 Leader side} *)

(* Quorum-acked lease refresh; with lease_duration = 0. it degenerates
   into the reign proof every read pays. *)
let refresh_lease (rg : ext R.reign) =
  let until = Engine.now rg.ctx.Cluster.ctx_engine +. rg.r.cfg.lease_duration in
  if
    R.write_quorum rg.ctx ~region ~quorum:rg.quorum ~reg:R.lease_reg
      (encode_lease ~term:rg.term ~until)
  then begin
    rg.r.ext.leased_until <- until;
    true
  end
  else begin
    rg.deposed <- true;
    false
  end

let publish_watermark (rg : ext R.reign) w =
  ignore
    (Memclient.fence_all_async rg.ctx.Cluster.client : Memory.op_result Ivar.t array);
  if R.write_quorum rg.ctx ~region ~quorum:rg.quorum ~reg:commit_reg (Codec.int_field w)
  then rg.r.ext.published <- w
  else rg.deposed <- true

let ops_issued = Prof.counter "mem.ops.issued"

let reads_leased = Prof.counter "smr.reads.leased"

module Engine = struct
  let name = "velos"

  let descr =
    "One-sided Paxos on passive memory replicas: batched entry+watermark \
     writes, follower polling, leader leases (a leased read = 0 memory ops)"

  let region = region

  let header_regs = [ commit_reg; R.lease_reg ]

  let adopt_regs = header_regs

  type nonrec ext = ext

  let create () = { zombie = false; published = 0; leased_until = 0.0 }

  (* A (re)started replica has no snapshot protocol to rejoin through:
     the poll loop rebuilds the applied prefix from replica memory,
     one-sidedly. *)
  let start (ctx : _ Cluster.ctx) (r : ext R.replica) =
    r.ext.zombie <- false;
    ctx.Cluster.spawn_sub "velos.pump" (fun () -> R.pump ctx r ~other:ignore);
    ctx.Cluster.spawn_sub "velos.poll" (fun () -> poll_loop ctx r)

  (* Adopt the max watermark and the max lease expiry.  The dense prefix
     must cover the watermark: the read quorum intersects the write
     quorum of every committed entry, so this only fails if the region
     was corrupted.  After the rewrite, everything rewritten all-ack
     under our term is decided: republish the watermark over the whole
     prefix (the fence orders it after the rewrites in every QP stream,
     a no-op under Strict), then wait out every lease that could still
     be valid BEFORE serving reads or acking appends — on the shared
     virtual clock this closes the stale-read window exactly. *)
  let adopt (ctx : _ Cluster.ctx) (_ : ext R.replica) ~term ~prefix_len headers =
    let max_of decode zero =
      List.fold_left
        (fun acc h -> match decode h with Some v when v > acc -> v | _ -> acc)
        zero headers
    in
    let floor = max_of (fun h -> Option.bind h.(0) Codec.int_of_field) 0 in
    let lease_until =
      max_of (fun h -> Option.map snd (Option.bind h.(1) decode_lease)) 0.0
    in
    if prefix_len < floor then None
    else
      Some
        (fun () ->
          let client = ctx.Cluster.client in
          ignore (Memclient.fence_all_async client : Memory.op_result Ivar.t array);
          let writes =
            Memclient.write_all_async client ~region ~reg:commit_reg
              (Codec.int_field prefix_len)
          in
          if
            (not (R.all_acked writes (Memclient.majority client)))
            [@simlint.allow
              "F1 watermark republish commit point: an acked write may lag \
               its application, but every reader that could contradict it \
               (follower poll, successor recovery) reads either behind the \
               fenced watermark or after a permission swap that drains this \
               QP"]
          then None
          else begin
            let now = Engine.now ctx.Cluster.ctx_engine in
            if lease_until > now then begin
              Obs.count ctx.Cluster.ctx_obs "velos.lease.waits" 1;
              Engine.sleep (lease_until -. now)
            end;
            Some (header ~term ~until:lease_until ~committed:prefix_len)
          end)

  (* Establish the lease before the first read can arrive, so a leased
     reign never pays a per-read round at all. *)
  let begin_reign (rg : ext R.reign) =
    rg.r.ext.published <- rg.next - 1;
    rg.r.ext.leased_until <- 0.0;
    if rg.r.cfg.lease_duration > 0.0 then ignore (refresh_lease rg)

  (* ONE batched write per memory: the new entry plus the watermark
     covering the previous one (free commit notification for the
     pollers).  The fence keeps the batch behind its predecessor in
     every QP stream, so a reordered watermark can never overtake the
     entry it covers. *)
  let commit_write (rg : ext R.reign) ~index ~meta =
    let client = rg.ctx.Cluster.client in
    ignore (Memclient.fence_all_async client : Memory.op_result Ivar.t array);
    let values =
      [
        (R.entry_reg index, Some (R.encode_entry ~term:rg.term ~cmd:meta));
        (commit_reg, Some (Codec.int_field (index - 1)));
      ]
    in
    let writes =
      Array.init rg.ctx.Cluster.cluster_m (fun i ->
          Memory.write_many_async (Memclient.mem client i) ~from:rg.r.pid ~region
            ~values)
    in
    if
      (R.all_acked writes rg.quorum)
      [@simlint.allow
        "F1 append commit point: the quorum all-ack decides the entry; a \
         rival that could read it stale first swaps permissions (draining \
         this QP), and follower polls only trust entries behind the fenced \
         watermark"]
    then begin
      rg.r.ext.published <- index - 1;
      Obs.count rg.ctx.Cluster.ctx_obs "velos.appends" 1;
      true
    end
    else false

  let deliver (rg : ext R.reign) ~index ~cmd = R.apply_entry rg.r ~index ~cmd

  (* A checkpoint must never run ahead of the published watermark. *)
  let before_checkpoint (rg : ext R.reign) ~up_to =
    if rg.r.ext.published < up_to then publish_watermark rg up_to;
    not rg.deposed

  let prove_reign (rg : ext R.reign) =
    if refresh_lease rg then
      Some (header ~term:rg.term ~until:rg.r.ext.leased_until ~committed:(rg.next - 1))
    else None

  let serve (rg : ext R.reign) =
    let ctx = rg.ctx and r = rg.r in
    match Mailbox.drain r.reads with
    | [] -> ()
    | readers ->
        if r.cfg.lease_violation then begin
          (* TEST FIXTURE: skip every validity check. *)
          Obs.count ctx.Cluster.ctx_obs "velos.reads.stale" 1;
          R.reply_reads ctx r readers
        end
        else if
          r.cfg.lease_duration > 0.0
          && Engine.now ctx.Cluster.ctx_engine < r.ext.leased_until
        then
          (* The headline path: a leased read is served from local state
             with ZERO memory operations.  The explicit 0-bump pins the
             counter row in the deterministic perf plane so the baseline
             gate would catch any op leaking into this scope. *)
          Prof.scope "velos.read.leased" (fun () ->
              Prof.bump ops_issued 0;
              Prof.bump reads_leased (List.length readers);
              Obs.count ctx.Cluster.ctx_obs "velos.reads.leased" 1;
              R.reply_reads ctx r readers)
        else
          Prof.scope "velos.read.quorum" (fun () ->
              Obs.count ctx.Cluster.ctx_obs "velos.reads.quorum" 1;
              if refresh_lease rg then R.reply_reads ctx r readers)

  (* Idle: flush the watermark so pollers converge on the final entry
     without waiting for a next append. *)
  let idle (rg : ext R.reign) =
    if (not rg.deposed) && rg.r.ext.published < rg.next - 1 then
      publish_watermark rg (rg.next - 1)

  (* TEST FIXTURE: a lease-violating leader ignores its own deposition
     and keeps serving local reads — exactly the stale-lease bug the
     chaos oracle must flag as an Agreement violation via the clients'
     watermark check. *)
  let end_reign (rg : ext R.reign) =
    let ctx = rg.ctx and r = rg.r in
    if r.cfg.lease_violation && (not r.stopped) && not r.ext.zombie then begin
      r.ext.zombie <- true;
      ctx.Cluster.spawn_sub "velos.zombie" (fun () ->
          while
            (not r.stopped) && Engine.now ctx.Cluster.ctx_engine < r.cfg.serve_until
          do
            (match Mailbox.drain r.reads with
            | [] -> ()
            | readers ->
                Obs.count ctx.Cluster.ctx_obs "velos.reads.stale" 1;
                R.reply_reads ctx r readers);
            Engine.sleep 2.0
          done)
    end

  (* TEST FIXTURE: with the stale-lease bug armed, clients keep asking
     the initial leader, so the zombie's stale answers actually reach
     them. *)
  let read_destination ctx (cfg : Consensus_engine.config) =
    if cfg.lease_violation then 0 else R.leader ctx cfg
end

include R.Make (Engine)

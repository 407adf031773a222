(* A replicated log on protected memory — state machine replication in
   the style the paper's technique spawned (cf. Mu, µs-scale SMR).

   The log lives in one region per memory, exclusively writable by the
   current leader (the Protected Memory Paxos permission discipline,
   Algorithm 7).  In steady state the leader appends an entry with ONE
   replicated write — two delays — because write success certifies the
   absence of rivals; no acknowledgement round is needed.

   Leader change: the new leader takes the exclusive write permission on
   every memory, reads a majority of log replicas, adopts for every slot
   the value with the highest term (any committed slot is preserved: the
   read majority intersects the commit majority, and by induction every
   replica holding a term ≥ the committing term holds the committed
   command), rewrites the adopted prefix under its own term, and resumes
   serving — all of it the shared {!Replicated_log} core.

   What this engine adds: committed entries are announced to the other
   replicas as Commit messages, which they apply in order; a restarted
   replica catches up by installing a snapshot message from the leader;
   a linearizable read costs one quorum write to the lease register. *)

open Rdma_sim
open Rdma_net
open Rdma_mm
open Rdma_obs
open Rdma_consensus
module R = Replicated_log

let region = "smr"

(* Replica-to-replica messages (the client protocol is the core's). *)
type msg =
  | Commit of { index : int; cmd : string }
  | Catch_up of { pid : int }  (* a restarted replica asking for a snapshot *)
  | Snapshot of { up_to : int; entries : string list }
      (* the committed prefix, installed wholesale (no log replay) *)

let encode_msg = function
  | Commit { index; cmd } -> Codec.join [ "com"; Codec.int_field index; cmd ]
  | Catch_up { pid } -> Codec.join [ "cup"; Codec.int_field pid ]
  | Snapshot { up_to; entries } ->
      Codec.join ("snp" :: Codec.int_field up_to :: entries)

let decode_msg s =
  match Codec.split s with
  | Some [ "com"; i; cmd ] ->
      Option.map (fun index -> Commit { index; cmd }) (Codec.int_of_field i)
  | Some [ "cup"; p ] -> Option.map (fun pid -> Catch_up { pid }) (Codec.int_of_field p)
  | Some ("snp" :: u :: entries) ->
      Option.map (fun up_to -> Snapshot { up_to; entries }) (Codec.int_of_field u)
  | _ -> None

type ext = {
  mutable caught_up : bool; (* a restarted replica has received a snapshot *)
  pending : (int * string) Mailbox.t; (* decoded Commit messages *)
  catchups : int Mailbox.t; (* restarted replicas awaiting a snapshot *)
}

let on_message (r : ext R.replica) payload =
  match decode_msg payload with
  | Some (Commit { index; cmd }) -> Mailbox.send r.ext.pending (index, cmd)
  | Some (Catch_up { pid }) -> Mailbox.send r.ext.catchups pid
  | Some (Snapshot { up_to = _; entries }) ->
      (* Install the leader's snapshot: apply the committed prefix we
         are missing wholesale — no log replay. *)
      r.ext.caught_up <- true;
      List.iteri
        (fun i stored ->
          let index = i + 1 in
          if index > r.applied_up_to then R.apply_stored r ~index stored)
        entries
  | None -> ()

(* Followers apply committed entries in order (buffering gaps). *)
let applier (r : ext R.replica) =
  let buffer = Hashtbl.create 32 in
  while not r.stopped do
    let index, cmd = Mailbox.recv r.ext.pending in
    Hashtbl.replace buffer index cmd;
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt buffer (r.applied_up_to + 1) with
      | Some cmd ->
          Hashtbl.remove buffer (r.applied_up_to + 1);
          R.apply_entry r ~index:(r.applied_up_to + 1) ~cmd
      | None -> continue := false
    done
  done

let ask_for_snapshot (ctx : _ Cluster.ctx) (r : ext R.replica) =
  let leader = R.leader ctx r.cfg in
  if leader <> r.pid then
    Network.send ctx.Cluster.ep ~dst:leader (encode_msg (Catch_up { pid = r.pid }))

(* The lease register doubles as this engine's reign proof and read
   confirmation: one quorum write of the term. *)
let write_lease (rg : ext R.reign) =
  R.write_quorum rg.ctx ~region ~quorum:rg.quorum ~reg:R.lease_reg
    (Codec.int_field rg.term)

let lease_header term = [ (R.lease_reg, Some (Codec.int_field term)) ]

let reads_confirmed = Prof.counter "smr.reads.confirmed"

module Engine = struct
  let name = "pmp"

  let descr =
    "Mu-style log on Protected Memory Paxos: permission-switched leader, 1 \
     replicated write per append, quorum lease write per read"

  let region = region

  let header_regs = [ R.lease_reg ]

  let adopt_regs = []

  type nonrec ext = ext

  let create () =
    { caught_up = false; pending = Mailbox.create (); catchups = Mailbox.create () }

  let start (ctx : _ Cluster.ctx) (r : ext R.replica) =
    let cfg = r.cfg in
    r.ext.caught_up <- false;
    ignore (Mailbox.drain r.ext.pending);
    ignore (Mailbox.drain r.ext.catchups);
    (* Only a restarted replica (now > 0) needs to catch up: ask the
       current leader for a snapshot until one arrives. *)
    if Engine.now ctx.Cluster.ctx_engine > 0.0 then
      ctx.Cluster.spawn_sub "smr.catchup" (fun () ->
          while
            (not r.stopped) && (not r.ext.caught_up)
            && Engine.now ctx.Cluster.ctx_engine < cfg.serve_until
          do
            ask_for_snapshot ctx r;
            Engine.sleep 25.0
          done);
    (* Anti-entropy (off by default): a follower whose apply stream
       stalls — e.g. Commit broadcasts lost to a partition — asks the
       leader for a snapshot, reusing the restart catch-up path.  The
       guard keeps every steady-state run free of extra traffic: the
       fiber only speaks up when no entry has applied for a whole
       interval and it is not itself the leader. *)
    if cfg.anti_entropy_every > 0.0 then
      ctx.Cluster.spawn_sub "smr.anti-entropy" (fun () ->
          let last = ref (-1) in
          while
            (not r.stopped) && Engine.now ctx.Cluster.ctx_engine < cfg.serve_until
          do
            Engine.sleep cfg.anti_entropy_every;
            if (not r.stopped) && r.applied_up_to = !last then ask_for_snapshot ctx r;
            last := r.applied_up_to
          done);
    ctx.Cluster.spawn_sub "smr.pump" (fun () -> R.pump ctx r ~other:(on_message r));
    ctx.Cluster.spawn_sub "smr.applier" (fun () -> applier r)

  let adopt _ _ ~term ~prefix_len:_ _ = Some (fun () -> Some (lease_header term))

  let begin_reign (rg : ext R.reign) = rg.r.ext.caught_up <- true

  (* One replicated write; an all-ack quorum = committed (two delays). *)
  let commit_write (rg : ext R.reign) ~index ~meta =
    R.write_quorum rg.ctx ~region ~quorum:rg.quorum ~reg:(R.entry_reg index)
      (R.encode_entry ~term:rg.term ~cmd:meta)

  let deliver (rg : ext R.reign) ~index ~cmd =
    Mailbox.send rg.r.ext.pending (index, cmd);
    Network.broadcast rg.ctx.Cluster.ep (encode_msg (Commit { index; cmd }))

  let before_checkpoint _ ~up_to:_ = true

  let prove_reign rg = if write_lease rg then Some (lease_header rg.term) else None

  let serve (rg : ext R.reign) =
    let ctx = rg.ctx and r = rg.r in
    (* A restarted replica asked to catch up: send it the whole committed
       log as one snapshot message — it installs the state instead of
       replaying (entries below the checkpoint may no longer exist in
       the log anyway). *)
    (match Mailbox.drain r.ext.catchups with
    | [] -> ()
    | pids ->
        let up_to = rg.next - 1 in
        let entries = R.committed rg up_to in
        List.iter
          (fun dst ->
            Network.send ctx.Cluster.ep ~dst (encode_msg (Snapshot { up_to; entries })))
          (List.sort_uniq compare pids));
    (* Linearizable reads (Mu-style): confirm the reign is intact with one
       permission-protected write to the lease register — it naks iff a
       rival grabbed the permission — then answer from local applied
       state. *)
    match Mailbox.drain r.reads with
    | [] -> ()
    | readers ->
        Prof.scope "pmp.read.lease" (fun () ->
            Prof.bump reads_confirmed (List.length readers);
            Obs.count ctx.Cluster.ctx_obs "smr.reads.confirm" 1;
            if write_lease rg then R.reply_reads ctx r readers else rg.deposed <- true)

  let idle _ = ()

  let end_reign _ = ()

  let read_destination = R.leader
end

include R.Make (Engine)

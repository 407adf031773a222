(* The replicated-log core under both SMR engines.

   Both engines are the paper's Protected Memory Paxos permission
   discipline (Algorithm 7) turned into a log: one region per memory,
   exclusively writable by the current leader, so write success
   certifies the absence of rivals.  This module owns the machinery they
   share:

   - the stored formats: entries [(term, stored)], checkpoints
     [(up_to, stored 1..up_to)] and command metadata [(client, seq, cmd)];
   - the client protocol (req/ack/rdq/rdr) and Ω-routed [submit] /
     [linearizable_read];
   - the replica record with its commit/recover subscriber lists;
   - leader recovery: permission-grab chains, a nak-tolerant quorum
     gather, max-checkpoint plus max-term dense adoption, the rewrite;
   - the reign loop: duplicate suppression, checkpoint plus truncate,
     and stale-masked state-transfer repair of restarted memories.

   An {!ENGINE} supplies the rest: its extra header registers, its
   commit write, its adoption extras and its read path. *)

open Rdma_sim
open Rdma_mem
open Rdma_net
open Rdma_mm
open Rdma_obs
open Rdma_consensus

type config = Consensus_engine.config

let entry_reg i = Printf.sprintf "e.%d" i

(* The checkpoint register: a quorum-acked snapshot of the committed
   prefix — [up_to] plus the stored entry strings 1..up_to.  Entries
   below the checkpoint may be truncated from the log; any reader holding
   the checkpoint needs none of them.  The register is only ever written
   AFTER the entries it covers were committed (quorum-acked), so a value
   read from ANY single replica covers only committed entries and
   adopting the maximum seen is safe. *)
let ckpt_reg = "ckpt"

(* The permission-protected reign proof: a quorum-acked write here naks
   iff a rival took the write permission. *)
let lease_reg = "lease"

(* {2 Stored formats} *)

let encode_entry ~term ~cmd = Codec.join2 (Codec.int_field term) cmd

let decode_entry s =
  match Codec.split2 s with
  | None -> None
  | Some (tf, cmd) -> Option.map (fun term -> (term, cmd)) (Codec.int_of_field tf)

let encode_ckpt ~up_to ~entries = Codec.join (Codec.int_field up_to :: entries)

let decode_ckpt s =
  match Codec.split s with
  | up :: entries ->
      Option.map (fun up_to -> (up_to, entries)) (Codec.int_of_field up)
  | [] -> None

(* Commands are stored with their (client, seq) origin so that a new
   leader can rebuild the duplicate-suppression table from the log and a
   retried request is acknowledged rather than re-appended. *)
let encode_cmd_meta ~client ~seq ~cmd =
  Codec.join3 (Codec.int_field client) (Codec.int_field seq) cmd

let decode_cmd_meta s =
  match Codec.split3 s with
  | None -> None
  | Some (cf, qf, cmd) -> (
      match (Codec.int_of_field cf, Codec.int_of_field qf) with
      | Some client, Some seq -> Some (client, seq, cmd)
      | _ -> None)

(* {2 Client protocol} *)

type msg =
  | Request of { client : int; seq : int; cmd : string }
  | Ack of { client : int; seq : int; index : int }
  | Read_request of { client : int; seq : int }
  | Read_reply of { client : int; seq : int; up_to : int }

let encode_msg = function
  | Request { client; seq; cmd } ->
      Codec.join [ "req"; Codec.int_field client; Codec.int_field seq; cmd ]
  | Ack { client; seq; index } ->
      Codec.join
        [ "ack"; Codec.int_field client; Codec.int_field seq; Codec.int_field index ]
  | Read_request { client; seq } ->
      Codec.join [ "rdq"; Codec.int_field client; Codec.int_field seq ]
  | Read_reply { client; seq; up_to } ->
      Codec.join
        [ "rdr"; Codec.int_field client; Codec.int_field seq; Codec.int_field up_to ]

let decode_msg s =
  match Codec.split s with
  | [ "req"; c; q; cmd ] -> (
      match (Codec.int_of_field c, Codec.int_of_field q) with
      | Some client, Some seq -> Some (Request { client; seq; cmd })
      | _ -> None)
  | [ "ack"; c; q; i ] -> (
      match (Codec.int_of_field c, Codec.int_of_field q, Codec.int_of_field i) with
      | Some client, Some seq, Some index -> Some (Ack { client; seq; index })
      | _ -> None)
  | [ "rdq"; c; q ] -> (
      match (Codec.int_of_field c, Codec.int_of_field q) with
      | Some client, Some seq -> Some (Read_request { client; seq })
      | _ -> None)
  | [ "rdr"; c; q; u ] -> (
      match (Codec.int_of_field c, Codec.int_of_field q, Codec.int_of_field u) with
      | Some client, Some seq, Some up_to ->
          Some (Read_reply { client; seq; up_to })
      | _ -> None)
  | _ -> None

(* {2 Replicas} *)

type 'e replica = {
  pid : int;
  cfg : config;
  applied : (int * string) Queue.t; (* (index, cmd) in application order *)
  mutable applied_up_to : int;
  mutable current_term : int;
  mutable stopped : bool;
  mutable subscribed : bool; (* telemetry subscription installed once *)
  requests : (int * int * string) Mailbox.t; (* client, seq, cmd *)
  reads : (int * int) Mailbox.t; (* client, seq *)
  rejoin : int Mailbox.t; (* restarted memories awaiting state transfer *)
  mutable commit_subs : (index:int -> cmd:string -> unit) list;
  mutable recover_subs : (term:int -> unit) list;
  ext : 'e;
}

let apply_entry r ~index ~cmd =
  if index = r.applied_up_to + 1 then begin
    Queue.push (index, cmd) r.applied;
    r.applied_up_to <- index;
    List.iter (fun f -> f ~index ~cmd) r.commit_subs
  end

(* Apply a stored entry string (committed, so its metadata is trusted). *)
let apply_stored r ~index stored =
  let cmd =
    match decode_cmd_meta stored with Some (_, _, cmd) -> cmd | None -> stored
  in
  apply_entry r ~index ~cmd

let quorum (ctx : _ Cluster.ctx) (cfg : config) =
  let m = ctx.Cluster.cluster_m in
  let f_m = match cfg.f_m with Some f -> f | None -> (m - 1) / 2 in
  m - f_m

(* The replica the Ω oracle points at, clamped to the replica range. *)
let leader (ctx : _ Cluster.ctx) (cfg : config) =
  min (Omega.leader ctx.Cluster.ctx_omega) (cfg.replicas - 1)

(* The commit predicate of a one-sided quorum write: the first [quorum]
   completions are all acks.  Branching on completion (rather than
   application) is safe for a structural reason: a successor's recovery
   begins with a permission swap on every memory, which drains
   acked-but-unapplied writes before its reads. *)
let all_acked writes quorum =
  List.for_all (fun (_, w) -> w = Memory.Ack) (Par.await_k writes quorum)

let write_quorum (ctx : _ Cluster.ctx) ~region ~quorum ~reg v =
  all_acked (Memclient.write_all_async ctx.Cluster.client ~region ~reg v) quorum

(* Route incoming messages: client requests and reads go to their
   mailboxes, anything else to the engine's [other]. *)
let pump (ctx : _ Cluster.ctx) r ~other =
  while not r.stopped do
    let _from, payload = Network.recv ctx.Cluster.ep in
    match decode_msg payload with
    | Some (Request { client; seq; cmd }) -> Mailbox.send r.requests (client, seq, cmd)
    | Some (Read_request { client; seq }) -> Mailbox.send r.reads (client, seq)
    | Some (Ack _ | Read_reply _) -> ()
    | None -> other payload
  done

let reply_reads (ctx : _ Cluster.ctx) r readers =
  List.iter
    (fun (client, seq) ->
      Network.send ctx.Cluster.ep ~dst:client
        (encode_msg (Read_reply { client; seq; up_to = r.applied_up_to })))
    readers

(* {2 Reigns} *)

type 'e reign = {
  ctx : string Cluster.ctx;
  r : 'e replica;
  term : int;
  quorum : int;
  stored : (int, string) Hashtbl.t; (* the committed log 1..next-1, as stored *)
  dedup : (int * int, int) Hashtbl.t; (* (client, seq) -> index *)
  mutable next : int;
  mutable ckpt_up_to : int;
  mutable deposed : bool;
}

let committed rg up_to = List.init up_to (fun i -> Hashtbl.find rg.stored (i + 1))

type header = (string * string option) list

module type ENGINE = sig
  val name : string

  val descr : string

  val region : string

  val header_regs : string list

  val adopt_regs : string list

  type ext

  val create : unit -> ext

  val start : string Cluster.ctx -> ext replica -> unit

  val adopt :
    string Cluster.ctx ->
    ext replica ->
    term:int ->
    prefix_len:int ->
    string option array list ->
    (unit -> header option) option

  val begin_reign : ext reign -> unit

  val commit_write : ext reign -> index:int -> meta:string -> bool

  val deliver : ext reign -> index:int -> cmd:string -> unit

  val before_checkpoint : ext reign -> up_to:int -> bool

  val prove_reign : ext reign -> header option

  val serve : ext reign -> unit

  val idle : ext reign -> unit

  val end_reign : ext reign -> unit

  val read_destination : string Cluster.ctx -> config -> int
end

module Make (E : ENGINE) = struct
  let name = E.name

  let descr = E.descr

  let region = E.region

  type nonrec replica = E.ext replica

  (* Only replicas may take the log's exclusive write permission. *)
  let legal_change (cfg : config) : Permission.legal_change =
   fun ~pid ~region:rg ~current:_ ~requested ->
    rg = region && pid < cfg.replicas && Permission.sole_writer requested = Some pid

  let setup_regions cluster (cfg : config) =
    let n = Cluster.n cluster in
    Cluster.add_region_everywhere cluster ~name:region
      ~perm:(Permission.exclusive_writer ~writer:0 ~n)
      ~registers:
        ((ckpt_reg :: E.header_regs)
        @ List.init cfg.max_entries (fun i -> entry_reg (i + 1)))

  let applied_entries r = Queue.fold (fun acc e -> e :: acc) [] r.applied |> List.rev

  let applied_count r = r.applied_up_to

  let current_term r = r.current_term

  let on_commit r f = r.commit_subs <- f :: r.commit_subs

  let on_recover r f = r.recover_subs <- f :: r.recover_subs

  let stop r = r.stopped <- true

  (* State transfer to one (typically restarted) memory: take the write
     permission there, then install the leader's full view of the region
     — checkpoint, header registers, log entries — in ONE batched write,
     which stamps every register fresh in the memory's current epoch
     ([Memory.stale_registers] becomes empty).

     Only registers still STALE since the restart are written: a fresh
     register was written after the rejoin — possibly by a newer-term
     leader — and clobbering it with this leader's (possibly outdated)
     view could erase a committed entry.  The staleness mask models
     reading the memory's per-epoch valid bitmap; the batched write stays
     permission-guarded, so if a rival takes the permission between the
     mask read and the write, the write naks and the rival repairs
     instead.  Spawned as a sub-fiber so a memory that re-crashes
     mid-transfer cannot wedge the leader. *)
  let spawn_repair (ctx : _ Cluster.ctx) r ~term ~header ~up_to ~entries ~tail mid =
    ctx.Cluster.spawn_sub
      (Printf.sprintf "%s.repair%d" region mid)
      (fun () ->
        let client = ctx.Cluster.client in
        let n = ctx.Cluster.cluster_n in
        let (_ : Memory.op_result) =
          Memclient.change_permission client ~mem:mid ~region
            ~perm:(Permission.exclusive_writer ~writer:r.pid ~n)
        in
        let tail_tbl = Hashtbl.create 16 in
        List.iter (fun (i, stored) -> Hashtbl.replace tail_tbl i stored) tail;
        let slot i =
          ( entry_reg i,
            if i <= up_to then None
            else
              Option.map
                (fun stored -> encode_entry ~term ~cmd:stored)
                (Hashtbl.find_opt tail_tbl i) )
        in
        let values =
          (ckpt_reg, if up_to = 0 then None else Some (encode_ckpt ~up_to ~entries))
          :: header
          @ List.init r.cfg.max_entries (fun i -> slot (i + 1))
        in
        let stale = Memory.stale_registers (Memclient.mem client mid) ~region in
        let values = List.filter (fun (reg, _) -> List.mem reg stale) values in
        if values <> [] then
          match Memclient.write_many client ~mem:mid ~region ~values with
          | Memory.Ack ->
              Stats.bump ctx.Cluster.ctx_stats (region ^ ".repairs");
              Obs.event ctx.Cluster.ctx_obs ~actor:(Printf.sprintf "p%d" r.pid)
                (Event.Custom
                   { name = region ^ ".repair"; detail = Printf.sprintf "mu%d" mid })
          | Memory.Nak -> ())
  [@@simlint.allow
    "F1 repair bookkeeping: the Ack branch only counts the repair in \
     telemetry; the transferred state is validated by the next leader \
     recovery's reads, which run under a fresh permission grab that \
     drains this write (EXPERIMENTS.md W2)"]

  (* Leader recovery: take permissions, read a quorum of replicas, adopt
     the highest checkpoint plus max-term values per later slot, let the
     engine adopt its header registers, rewrite the dense prefix under
     our own term.  Returns the adopted log (dense prefix) and the
     adopted checkpoint index, or None if deposed meanwhile.

     A read nak does not doom the recovery: a restarted memory answers
     "I don't know" for its stale registers (rather than serving lost
     state as ⊥), so we wait for a quorum of SUCCESSFUL chains and
     repair the nak'd memories with a full state transfer afterwards. *)
  let recover (ctx : _ Cluster.ctx) r ~term =
    let cfg = r.cfg in
    let m = ctx.Cluster.cluster_m in
    let quorum = quorum ctx cfg in
    let n = ctx.Cluster.cluster_n in
    let client = ctx.Cluster.client in
    let k = List.length E.adopt_regs in
    let regs =
      (ckpt_reg :: E.adopt_regs) @ List.init cfg.max_entries (fun i -> entry_reg (i + 1))
    in
    (* per-memory chain: grab permission, read the whole region *)
    let chains = Array.init m (fun _ -> Ivar.create ()) in
    for i = 0 to m - 1 do
      ctx.Cluster.spawn_sub
        (Printf.sprintf "%s.recover%d" region i)
        (fun () ->
          let (_ : Memory.op_result) =
            Memclient.change_permission client ~mem:i ~region
              ~perm:(Permission.exclusive_writer ~writer:r.pid ~n)
          in
          match
            Ivar.await
              (Memory.read_many_async (Memclient.mem client i) ~from:r.pid ~region ~regs)
          with
          | Memory.Read_many values -> Ivar.fill chains.(i) (Some values)
          | Memory.Read_many_nak -> Ivar.fill chains.(i) None)
    done;
    (* Gather a quorum of successful chains, tolerating naks: each round
       waits for [quorum + failures-so-far] completions; crashed memories
       never complete, so give up (and retry in a later term) once that
       exceeds m. *)
    let rec gather want =
      if want > m then None
      else begin
        let completed = Par.await_k chains want in
        let failed =
          List.filter_map (fun (i, v) -> if v = None then Some i else None) completed
        in
        let ok =
          List.filter_map (fun (i, v) -> Option.map (fun vs -> (i, vs)) v) completed
        in
        if List.length ok >= quorum then Some (ok, failed)
        else gather (quorum + List.length failed)
      end
    in
    match gather quorum with
    | None -> None
    | Some (ok, failed) -> (
        (* Adopt the highest checkpoint seen: it covers only committed
           entries (written quorum-acked before any truncation), and the
           read quorum intersects the checkpoint's write quorum. *)
        let base = ref 0 in
        let base_entries = ref [] in
        List.iter
          (fun (_, values) ->
            match Option.bind values.(0) decode_ckpt with
            | Some (up_to, entries) when up_to > !base ->
                base := up_to;
                base_entries := entries
            | _ -> ())
          ok;
        let base = !base in
        (* Per-slot max-term adoption above the checkpoint (values below
           it may be truncated away and are covered by the checkpoint). *)
        let adopted = Array.make cfg.max_entries None in
        List.iter
          (fun (_, values) ->
            Array.iteri
              (fun j v ->
                let idx = j - k - 1 in
                if idx >= base then
                  match Option.bind v decode_entry with
                  | None -> ()
                  | Some (t, stored) -> (
                      match adopted.(idx) with
                      | Some (t0, _) when t0 >= t -> ()
                      | _ -> adopted.(idx) <- Some (t, stored)))
              values)
          ok;
        (* Dense adopted tail above the checkpoint. *)
        let tail = ref [] in
        (try
           for idx = base to cfg.max_entries - 1 do
             match adopted.(idx) with
             | Some (_, stored) -> tail := (idx + 1, stored) :: !tail
             | None -> raise Exit
           done
         with Exit -> ());
        let tail = List.rev !tail in
        let headers = List.map (fun (_, values) -> Array.sub values 1 k) ok in
        match
          E.adopt ctx r ~term ~prefix_len:(base + List.length tail) headers
        with
        | None -> None
        | Some finish -> (
            (* Re-replicate the adopted checkpoint, then rewrite the tail
               under our term. *)
            let deposed = ref false in
            let rewrite ~reg v =
              if not (write_quorum ctx ~region ~quorum ~reg v) then deposed := true
            in
            if base > 0 then
              rewrite ~reg:ckpt_reg (encode_ckpt ~up_to:base ~entries:!base_entries);
            List.iter
              (fun (index, stored) ->
                if not !deposed then
                  rewrite ~reg:(entry_reg index) (encode_entry ~term ~cmd:stored))
              tail;
            if !deposed then None
            else
              match finish () with
              | None -> None
              | Some header ->
                  (* State-transfer repair of the memories whose chains
                     nak'd (they restarted and lost the log). *)
                  List.iter
                    (fun mid ->
                      spawn_repair ctx r ~term ~header ~up_to:base
                        ~entries:!base_entries ~tail mid)
                    failed;
                  Some (List.mapi (fun i e -> (i + 1, e)) !base_entries @ tail, base)))

  (* Once [checkpoint_every] entries have committed past the last
     checkpoint: write the snapshot register (quorum-acked — only then
     is the checkpoint allowed to exist), then truncate the covered
     prefix with one batched ⊥-write per memory. *)
  let maybe_checkpoint rg =
    let cfg = rg.r.cfg in
    if cfg.checkpoint_every > 0 && rg.next - 1 >= rg.ckpt_up_to + cfg.checkpoint_every
    then begin
      let up_to = rg.next - 1 in
      if E.before_checkpoint rg ~up_to then begin
        let ctx = rg.ctx in
        if
          write_quorum ctx ~region ~quorum:rg.quorum ~reg:ckpt_reg
            (encode_ckpt ~up_to ~entries:(committed rg up_to))
        then begin
          let nones = List.init up_to (fun i -> (entry_reg (i + 1), None)) in
          let truncs =
            Array.init ctx.Cluster.cluster_m (fun i ->
                Memory.write_many_async
                  (Memclient.mem ctx.Cluster.client i)
                  ~from:rg.r.pid ~region ~values:nones)
          in
          ignore (Par.await_k truncs rg.quorum);
          rg.ckpt_up_to <- up_to;
          Stats.bump ctx.Cluster.ctx_stats (region ^ ".checkpoints")
        end
        else rg.deposed <- true
      end
    end

  (* A restarted memory announced itself (via the Mem_restart telemetry
     event): prove the reign, then transfer it a full snapshot.  A
     quorum-acked reign proof means we still hold write permission on a
     quorum, so every committed entry is ours or was adopted by our
     recovery — the transfer cannot mask an entry a newer-term leader
     committed.  On a nak we are deposed — but the nak may be the
     restarted memory itself (fresh epoch), not a rival, so the drained
     mids go BACK on the mailbox: whoever leads next (possibly this
     replica, re-recovered under a higher term) must still serve the
     transfer.  A rival that heard the same Mem_restart events repairs
     twice; the transfer is stale-filtered, so that is safe. *)
  let serve_rejoins rg =
    let r = rg.r in
    match Mailbox.drain r.rejoin with
    | [] -> ()
    | mids -> (
        match E.prove_reign rg with
        | None ->
            rg.deposed <- true;
            List.iter (Mailbox.send r.rejoin) mids
        | Some header ->
            let up_to = rg.ckpt_up_to in
            let entries = committed rg up_to in
            let tail =
              List.init (rg.next - 1 - up_to) (fun i ->
                  let index = up_to + i + 1 in
                  (index, Hashtbl.find rg.stored index))
            in
            List.iter
              (fun mid ->
                spawn_repair rg.ctx r ~term:rg.term ~header ~up_to ~entries ~tail mid)
              (List.sort_uniq compare mids))

  (* A client request: re-ack a retried one, else commit it at the next
     index through the engine's commit write. *)
  let append rg (client, seq, cmd) =
    let ep = rg.ctx.Cluster.ep in
    match Hashtbl.find_opt rg.dedup (client, seq) with
    | Some index -> Network.send ep ~dst:client (encode_msg (Ack { client; seq; index }))
    | None ->
        if rg.next > rg.r.cfg.max_entries then rg.deposed <- true
        else begin
          let index = rg.next in
          let meta = encode_cmd_meta ~client ~seq ~cmd in
          if E.commit_write rg ~index ~meta then begin
            rg.next <- index + 1;
            Hashtbl.replace rg.dedup (client, seq) index;
            Hashtbl.replace rg.stored index meta;
            E.deliver rg ~index ~cmd;
            Network.send ep ~dst:client (encode_msg (Ack { client; seq; index }));
            maybe_checkpoint rg
          end
          else rg.deposed <- true
        end

  (* Serve one reign: rebuild duplicate suppression and the stored log
     from the recovered prefix and deliver it, then serve rejoins, reads
     and requests until deposed, stopped or no longer the Ω leader. *)
  let reign (ctx : _ Cluster.ctx) r ~term ~prefix ~base =
    List.iter (fun f -> f ~term) r.recover_subs;
    let rg =
      {
        ctx;
        r;
        term;
        quorum = quorum ctx r.cfg;
        stored = Hashtbl.create 64;
        dedup = Hashtbl.create 32;
        next = List.length prefix + 1;
        ckpt_up_to = base;
        deposed = false;
      }
    in
    List.iter
      (fun (index, stored) ->
        Hashtbl.replace rg.stored index stored;
        let cmd =
          match decode_cmd_meta stored with
          | Some (client, seq, cmd) ->
              Hashtbl.replace rg.dedup (client, seq) index;
              cmd
          | None -> stored
        in
        E.deliver rg ~index ~cmd)
      prefix;
    E.begin_reign rg;
    while
      (not rg.deposed) && (not r.stopped)
      && Engine.now ctx.Cluster.ctx_engine < r.cfg.serve_until
      && Omega.leader ctx.Cluster.ctx_omega = r.pid
    do
      serve_rejoins rg;
      E.serve rg;
      match Mailbox.recv_timeout r.requests 4.0 with
      | None -> E.idle rg
      | Some req -> append rg req
    done;
    E.end_reign rg

  let leader_loop (ctx : _ Cluster.ctx) r =
    let terms = ref 0 in
    let continue = ref true in
    while !continue && not r.stopped do
      Omega.wait_until_leader ctx.Cluster.ctx_omega ~me:r.pid;
      if r.stopped || Engine.now ctx.Cluster.ctx_engine >= r.cfg.serve_until then
        continue := false
      else begin
        incr terms;
        if !terms > r.cfg.max_terms then continue := false
        else begin
          let term = (!terms * r.cfg.replicas) + r.pid + 1 in
          r.current_term <- term;
          (* The very first reign of the initial leader: permissions are
             still at their creation values and the log is empty — skip
             recovery (the 2-delay fast path from the very first append).
             A RESTARTED initial leader (now > 0) recovers like anyone
             else. *)
          let recovered =
            if r.pid = 0 && !terms = 1 && Engine.now ctx.Cluster.ctx_engine = 0.0
            then Some ([], 0)
            else recover ctx r ~term
          in
          match recovered with
          | None -> () (* deposed during recovery; wait for Ω again *)
          | Some (prefix, base) -> reign ctx r ~term ~prefix ~base
        end
      end
    done

  let spawn_replica cluster ?(cfg = Consensus_engine.default_config) ~pid () =
    let r =
      {
        pid;
        cfg;
        applied = Queue.create ();
        applied_up_to = 0;
        current_term = 0;
        stopped = false;
        subscribed = false;
        requests = Mailbox.create ();
        reads = Mailbox.create ();
        rejoin = Mailbox.create ();
        commit_subs = [];
        recover_subs = [];
        ext = E.create ();
      }
    in
    Cluster.spawn cluster ~pid (fun ctx ->
        (* A (re)started replica begins from nothing: drop any pre-crash
           state — Cluster.restart_process re-runs this program from the
           top, and the engine's [start] rebuilds the applied prefix. *)
        Queue.clear r.applied;
        r.applied_up_to <- 0;
        r.current_term <- 0;
        r.stopped <- false;
        ignore (Mailbox.drain r.requests);
        ignore (Mailbox.drain r.reads);
        (* Restarted-memory announcements: every replica listens, the
           current leader acts (see serve_rejoins). *)
        if not r.subscribed then begin
          r.subscribed <- true;
          Obs.subscribe ctx.Cluster.ctx_obs (fun ~at:_ ~actor:_ ev ->
              match (ev : Event.t) with
              | Event.Mem_restart { mid; _ } -> Mailbox.send r.rejoin mid
              | _ -> ())
        end;
        E.start ctx r;
        leader_loop ctx r);
    r

  (* {2 Clients}

     A client is an extra process (pid ≥ replicas): send the request to
     the routed replica, await the matching reply, resend (possibly to a
     new leader) on a 20-delay silence, give up at [timeout]. *)
  let call (ctx : _ Cluster.ctx) ~timeout ~dst ~request ~reply =
    let deadline = Engine.now ctx.Cluster.ctx_engine +. timeout in
    let rec attempt () =
      if Engine.now ctx.Cluster.ctx_engine >= deadline then None
      else begin
        Network.send ctx.Cluster.ep ~dst:(dst ()) (encode_msg request);
        let rec await () =
          let remaining = deadline -. Engine.now ctx.Cluster.ctx_engine in
          let wait = min 20.0 remaining in
          if wait <= 0. then None
          else
            match Network.recv_timeout ctx.Cluster.ep wait with
            | None -> attempt ()
            | Some (_, payload) -> (
                match Option.bind (decode_msg payload) reply with
                | Some v -> Some v
                | None -> await ())
        in
        await ()
      end
    in
    attempt ()

  let submit (ctx : _ Cluster.ctx) ~cfg ~seq ~cmd ~timeout =
    let me = ctx.Cluster.pid in
    call ctx ~timeout
      ~dst:(fun () -> leader ctx cfg)
      ~request:(Request { client = me; seq; cmd })
      ~reply:(function
        | Ack { client; seq = s; index } when client = me && s = seq -> Some index
        | Ack _ | Request _ | Read_request _ | Read_reply _ -> None)

  let linearizable_read (ctx : _ Cluster.ctx) ~cfg ~seq ~timeout =
    let me = ctx.Cluster.pid in
    call ctx ~timeout
      ~dst:(fun () -> E.read_destination ctx cfg)
      ~request:(Read_request { client = me; seq })
      ~reply:(function
        | Read_reply { client; seq = s; up_to } when client = me && s = seq ->
            Some up_to
        | Read_reply _ | Request _ | Ack _ | Read_request _ -> None)
end

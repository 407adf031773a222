(** The replicated-log core under both SMR engines: the Protected Memory
    Paxos permission discipline turned into a log.  It owns the stored
    formats, the client protocol, the replica record, leader recovery,
    checkpointing, state-transfer repair of restarted memories,
    duplicate suppression and the reign loop; an {!ENGINE} supplies its
    extra header registers, its commit write, its adoption extras and its
    read path, and {!Make} turns it into a {!Consensus_engine.S}. *)

open Rdma_sim
open Rdma_mm
open Rdma_mem

type config = Consensus_engine.config

(** {2 Registers and stored formats} *)

val entry_reg : int -> string

(** The checkpoint register: a quorum-acked snapshot of the committed
    prefix ([up_to] plus the stored entries [1..up_to]).  Written only
    after the covered entries committed, so a checkpoint read from any
    single replica is safe to adopt; the log below it may be
    truncated. *)
val ckpt_reg : string

(** The permission-protected reign proof: a quorum-acked write here
    naks iff a rival took the write permission. *)
val lease_reg : string

val encode_entry : term:int -> cmd:string -> string

val decode_entry : string -> (int * string) option

val encode_ckpt : up_to:int -> entries:string list -> string

val decode_ckpt : string -> (int * string list) option

(** The index of a checkpoint, read from its first frame without
    splitting its entries.  Wherever [decode_ckpt s] is [Some (i, _)],
    [ckpt_index s = Some i]; on a malformed tail it may still read an
    index that [decode_ckpt] then rejects. *)
val ckpt_index : string -> int option

(** {2 Client protocol} *)

type msg =
  | Request of { client : int; seq : int; cmd : string }
  | Ack of { client : int; seq : int; index : int }
  | Read_request of { client : int; seq : int }
  | Read_reply of { client : int; seq : int; up_to : int }

val encode_msg : msg -> string

(** [None] for a malformed message and, read from the tag alone, for any
    other protocol's message. *)
val decode_msg : string -> msg option

(** {2 Replicas} *)

type 'e replica = {
  pid : int;
  cfg : config;
  applied : (int * string) Queue.t;  (** [(index, cmd)] in application order *)
  mutable applied_up_to : int;
  mutable current_term : int;
  mutable stopped : bool;
  mutable subscribed : bool;
  requests : (int * int * string) Mailbox.t;  (** client, seq, cmd *)
  reads : (int * int) Mailbox.t;  (** client, seq *)
  rejoin : int Mailbox.t;  (** restarted memories awaiting state transfer *)
  mutable commit_subs : (index:int -> cmd:string -> unit) list;
  mutable recover_subs : (term:int -> unit) list;
  ext : 'e;  (** the engine's own per-replica state *)
}

(** Apply the next entry in order (a no-op for any other index) and
    notify the commit subscribers. *)
val apply_entry : 'e replica -> index:int -> cmd:string -> unit

(** [apply_entry] on a stored entry string, stripping its metadata. *)
val apply_stored : 'e replica -> index:int -> string -> unit

(** The Ω leader, clamped to the replica range. *)
val leader : 'm Cluster.ctx -> config -> int

(** Await the first [quorum] completions; [true] iff all acked. *)
val all_acked : Memory.op_result Ivar.t array -> int -> bool [@@sim.yields]

(** Write one register on every memory; [true] iff the first [quorum]
    completions all acked. *)
val write_quorum :
  'm Cluster.ctx -> region:string -> quorum:int -> reg:string -> string -> bool
[@@sim.yields]

(** The replica's message loop: client requests and reads go to their
    mailboxes, any other payload to [other]. *)
val pump : string Cluster.ctx -> 'e replica -> other:(string -> unit) -> unit
[@@sim.yields]

(** Answer each [(client, seq)] read with the replica's applied index. *)
val reply_reads : string Cluster.ctx -> 'e replica -> (int * int) list -> unit

(** {2 Reigns} *)

(** One leader reign, from recovery to deposition. *)
type 'e reign = {
  ctx : string Cluster.ctx;
  r : 'e replica;
  term : int;
  quorum : int;
  stored : (int, string) Hashtbl.t;
      (** the committed log [1..next-1], as stored (with metadata) *)
  dedup : (int * int, int) Hashtbl.t;  (** [(client, seq)] to index *)
  mutable next : int;  (** the next index to commit *)
  mutable ckpt_up_to : int;
  mutable deposed : bool;
}

(** The stored entries [1..up_to]. *)
val committed : 'e reign -> int -> string list

(** Engine header registers and their values for a state transfer. *)
type header = (string * string option) list

(** What an engine supplies.  Hooks taking a reign run on the leader
    fiber; those that write memory may suspend and mark the reign
    [deposed] on a nak. *)
module type ENGINE = sig
  val name : string

  val descr : string

  (** The region, also the prefix of fiber names, collector counters
      ([<region>.checkpoints], [<region>.repairs]) and the
      [<region>.repair] event. *)
  val region : string

  (** Registers between the checkpoint and the log entries in the
      region layout. *)
  val header_regs : string list

  (** Header registers recovery reads; {!adopt} receives their values. *)
  val adopt_regs : string list

  type ext

  val create : unit -> ext

  (** Run at every (re)start of a replica, after the core reset its
      state: reset [ext] and spawn the engine's fibers, including the
      {!pump}. *)
  val start : string Cluster.ctx -> ext replica -> unit

  (** Adoption extras.  Given the dense prefix length and, per read
      chain, the values of [adopt_regs]: [None] abandons the recovery;
      [Some finish] lets the core rewrite the prefix, after which
      [finish ()] publishes the engine's registers and returns the
      repair header, or [None] if deposed. *)
  val adopt :
    string Cluster.ctx ->
    ext replica ->
    term:int ->
    prefix_len:int ->
    string option array list ->
    (unit -> header option) option

  (** After the recovered prefix was delivered, before serving. *)
  val begin_reign : ext reign -> unit

  (** The commit write of entry [index]; [true] = committed. *)
  val commit_write : ext reign -> index:int -> meta:string -> bool

  (** Deliver a committed (or recovered) entry; must not suspend. *)
  val deliver : ext reign -> index:int -> cmd:string -> unit

  (** Before a checkpoint covering [1..up_to]; [false] skips it. *)
  val before_checkpoint : ext reign -> up_to:int -> bool

  (** Prove the reign before a state transfer: the repair header, or
      [None] if deposed. *)
  val prove_reign : ext reign -> header option

  (** The read path (and any other per-iteration service). *)
  val serve : ext reign -> unit

  (** No request arrived within the poll interval. *)
  val idle : ext reign -> unit

  (** The reign ended (deposed, stopped or no longer leader). *)
  val end_reign : ext reign -> unit

  (** Where clients send linearizable reads. *)
  val read_destination : string Cluster.ctx -> config -> int
end

module Make (E : ENGINE) : Consensus_engine.S with type replica = E.ext replica

(** Classic single-decree Paxos (message passing, crash failures,
    n ≥ 2f + 1) — the baseline algorithm, and the algorithm [A] that
    Robust Backup (Definition 2) transforms by swapping the transport. *)

open Rdma_sim
open Rdma_mm

type msg =
  | Prepare of { ballot : int }
  | Promise of { ballot : int; accepted_ballot : int; accepted_value : string }
  | Reject of { ballot : int; higher : int }
  | Accept of { ballot : int; value : string }
  | Accepted of { ballot : int }
  | Decide of { value : string }

val encode : msg -> string

val decode : string -> msg option

(** {2 Rules shared by the Paxos family}

    Disk, Protected Memory, Fast and Aligned Paxos, the SMR log's terms
    and Robust Backup's validator all use these. *)

(** Ballot [round] of process [pid] among [n]: [round·n + pid + 1]. *)
val ballot : n:int -> round:int -> pid:int -> int

(** [owns ~n ~pid b]: [b > 0] and {!ballot} gives [b] to [pid]. *)
val owns : n:int -> pid:int -> int -> bool

(** A majority of [n] processes: [⌊n/2⌋ + 1]. *)
val majority : int -> int

(** The value accepted at the highest ballot above 0 among the
    (ballot, value) reports; the earliest report wins a tie.  [None] when
    no report carries a ballot above 0. *)
val highest_accepted : (int * string) list -> string option

(** The acceptor role: answers each Prepare and Accept taken from the
    mailbox with [send ~dst], until a Decide arrives. *)
val acceptor : send:(dst:int -> string -> unit) -> (int * msg) Mailbox.t -> unit
[@@sim.yields]

type config = {
  round_timeout : float;  (** how long a proposer waits for a quorum *)
  max_rounds : int;  (** proposer retry budget; keeps failing runs finite *)
  retry_backoff : float;  (** pause between a failed round and the next *)
}

(** The protocol, functorized over its transport (Definition 2). *)
module Make (T : Transport.S) : sig
  type t

  (** Wire up one process (three fibers: router, acceptor, proposer).
      [spawn_fiber] should be the cluster's [spawn_sub] so injected
      crashes kill all roles. *)
  val spawn :
    engine:Engine.t ->
    omega:Omega.t ->
    ?cfg:config ->
    spawn_fiber:(string -> (unit -> unit) -> unit) ->
    transport:T.t ->
    input:string ->
    unit ->
    t

  (** Fills when this process decides. *)
  val decision : t -> Report.decision Ivar.t
end

module Over_network : module type of Make (Transport.Net)

(** Run a complete message-passing Paxos instance on a fresh cluster of
    [n] processes (no memories). *)
val run :
  ?cfg:config ->
  ?seed:int ->
  ?faults:Fault.t list ->
  ?prepare:(string Cluster.t -> unit) ->
  n:int ->
  inputs:string array ->
  unit ->
  Report.t

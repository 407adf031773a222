(** A distributed lock service over the protected-memory log: FIFO
    grants with monotonically increasing fencing tokens. *)

type command =
  | Acquire of { lock : string; owner : string }
  | Release of { lock : string; owner : string }

val encode_command : command -> string

type t

val create : unit -> t

val apply : t -> command -> unit

(** Current holder and its fencing token. *)
val holder : t -> string -> (string * int) option

(** Owners queued behind the current holder, FIFO. *)
val waiting : t -> string -> string list

(** All grants ever made, oldest first, as (lock, owner, token); tokens
    increase strictly. *)
val grant_history : t -> (string * string * int) list

(** Materialize from a replica's applied log. *)
val of_log : (int * string) list -> t

(** Materialize from a packed replica of any engine. *)
val of_replica : Consensus_engine.running -> t

(** A replicated key-value store: the state machine applied to committed
    log entries. *)

type command = Set of string * string | Delete of string | Noop

val encode_command : command -> string

val decode_command : string -> command option

type t

val get : t -> string -> string option

(** Materialize the store from a replica's applied log. *)
val of_log : (int * string) list -> t

val bindings : t -> (string * string) list

(** Materialize from a packed replica of any engine. *)
val of_replica : Consensus_engine.running -> t

(** Live-following store: seeded from the replica's applied log, then
    kept current from its commit stream ({!Consensus_engine.on_commit}). *)
val attach : Consensus_engine.running -> t

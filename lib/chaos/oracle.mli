(** The invariant oracle: agreement, validity, Byzantine containment and
    post-GST termination (via a virtual-time watchdog), checked on every
    chaos run by listening to the telemetry stream. *)

open Rdma_mm
open Rdma_consensus

type violation =
  | Agreement of { decisions : (int * string) list }
      (** conflicting decisions among correct processes *)
  | Validity of { pid : int; value : string }
      (** a correct process decided a value nobody proposed *)
  | Liveness of { undecided : int list; deadline : float }
      (** correct, uncrashed processes undecided at the watchdog *)
  | Repair of { mid : int; detail : string }
      (** a rejoined memory the protocol failed to re-replicate onto by
          the watchdog deadline *)
  | Aborted of { error : string }
      (** the run itself died: engine deadlock or a fiber exception *)

val pp_violation : Format.formatter -> violation -> unit

val violation_to_string : violation -> string

type watch

(** Install the decision listener (a tap on the typed [Decide] events)
    and schedule the termination watchdog at virtual time [deadline].
    Call from a run's [prepare] hook.  [repair], when given, is
    evaluated at the watchdog for every memory that rejoined (observed
    via [Mem_restart]) and is still alive: [Some detail] means the
    protocol failed to re-replicate its state onto that memory. *)
val install :
  ?repair:(int -> string option) -> deadline:float -> 'm Cluster.t -> watch

(** Verdict over a completed run: agreement over the non-Byzantine
    decisions, validity (crash-only runs; pass [~validity:false] when
    the scenario decides a derived value that is not literally any
    input), the watchdog's liveness result, and the repair predicate's
    verdicts when a [watch] is given. *)
val check :
  ?watch:watch ->
  ?validity:bool ->
  inputs:string array ->
  byz:int list ->
  Report.t ->
  violation list

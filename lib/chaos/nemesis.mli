(** The nemesis: seeded generation of adversarial fault schedules over
    the full fault vocabulary, constrained by a per-algorithm budget so
    runs stay inside the algorithm's fault model — plus telemetry-driven
    triggers that fire at observed protocol phase boundaries. *)

open Rdma_consensus

type budget = {
  horizon : float;  (** faults are injected in [[0, horizon)] *)
  max_process_crashes : int;
      (** shared fP pool: scheduled crashes + Byzantine replacements +
          trigger-fired crashes *)
  max_memory_crashes : int;  (** fM *)
  max_machine_crashes : int;  (** full-system crashes (Section 7) *)
  max_leader_flaps : int;
  allow_partition : bool;
  allow_latency : bool;
  max_gst : float;  (** 0. = no asynchronous prefix *)
  max_extra : float;
  max_faults : int;
  max_recoveries : int;
      (** how many memory/machine crashes get paired with a later
          [Recover_memory]/[Restart_machine] at crash + 2.0 + U[0,
          horizon/2); recoveries ride along outside the [max_faults]
          cap *)
  orderings : Rdma_mem.Ordering.mode list;
      (** weak memory-ordering models the nemesis may install (one
          [Fault.Set_ordering] per case, drawn alongside "leave it
          strict"); empty = always strict.  Rides outside [max_faults]:
          an ordering model is hardware configuration, not an injected
          event *)
}

(** Lift the crash constraints (all processes and memories become
    crashable): schedules leave the fault model, so violations are
    expected — this is how the shrinker is exercised. *)
val unleash : n:int -> m:int -> budget -> budget

type action =
  | Crash_leader  (** crash whoever Ω trusts the instant the phase opens *)
  | Crash_opener  (** crash the process that opened the phase span *)
  | Flip_leader  (** repoint Ω at another live correct process *)

type trigger = { phase : string; occurrence : int; action : action }

type case = {
  case_seed : int;
  faults : Fault.t list;
  byz : (int * string) list;  (** pid -> attack name from the scenario pool *)
  triggers : trigger list;
}

val action_name : action -> string

val action_of_name : string -> action option

(** Deterministically generate one case from [seed].  [attack_pool]
    names the Byzantine behaviours the scenario allows; [phases] the
    span names the telemetry adversary may hook.  [ordering] forces the
    memory-ordering model without consuming any draws — the rest of the
    schedule stays byte-identical to the strict run of the same seed
    (forcing [Strict] emits no fault); when absent, the budget's
    [orderings] pool is drawn from. *)
val generate :
  budget:budget ->
  n:int ->
  m:int ->
  ?attack_pool:string list ->
  ?max_byz:int ->
  ?phases:string list ->
  ?adversary:bool ->
  ?ordering:Rdma_mem.Ordering.mode ->
  seed:int ->
  unit ->
  case

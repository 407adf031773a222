(** Declarative fault schedules covering the model's failure and
    asynchrony knobs (Section 3). *)

open Rdma_mm

type t =
  | Crash_process of { pid : int; at : float }
  | Crash_memory of { mid : int; at : float }
  | Set_leader of { pid : int; at : float }
  | Async_until of { gst : float; extra : float }
  | Random_latency of { min : float; max : float }
      (** per-message latency in [[min, max)]: messages may overtake each
          other (links are not FIFO) *)
  | Crash_machine of { pid : int; mid : int; at : float }
      (** a full-system crash (Section 7): the process and its co-located
          memory fail at the same instant *)
  | Partition of { pairs : (int * int) list; at : float }
      (** sever the ordered pairs at time [at]; messages across severed
          links are buffered (links are no-loss), never dropped *)
  | Heal of { at : float }
      (** clear all severed pairs at [at] and flush buffered messages *)
  | Recover_memory of { mid : int; at : float }
      (** bring a crashed memory back EMPTY under a fresh epoch (the
          rejoin protocol re-establishes permissions before it serves);
          a benign no-op when the memory is not crashed at [at] *)
  | Restart_machine of { pid : int; mid : int; at : float }
      (** restart a full machine: the memory rejoins empty and the
          process re-runs its program from the top *)
  | Set_ordering of { mode : Rdma_mem.Ordering.mode }
      (** install a weak memory-ordering model on every memory at
          schedule-install time; per-op lag/reorder decisions come from
          the run's seed, so replay and shrinking reproduce them *)

(** The first fault that targets a pid or mid outside a cluster of [n]
    processes and [m] memories, has a NaN time, gives [Async_until] a
    negative or NaN [extra], gives [Random_latency] a negative or NaN
    bound or an empty range, or gives [Set_ordering] a negative, NaN or
    infinite lag or window, described in one line; [None] when the
    schedule is valid. *)
val problem : n:int -> m:int -> t list -> string option

(** Schedule the faults on the cluster: the one place a fault's time is
    turned into engine events.  Each timed fault fires at its absolute
    time [at], or now if [at] has passed.  Raises [Invalid_argument]
    with {!problem}'s description, before scheduling anything, if there
    is one — a typo'd target would otherwise silently test nothing. *)
val apply : 'm Cluster.t -> t list -> unit

val pp : Format.formatter -> t -> unit

(** The message-passing half of the M&M model (Section 3): directed links
    with integrity and no-loss; partial synchrony via a GST switch. *)

open Rdma_sim

type 'm t

(** Every send counts one [net.msgs.sent] on the engine's collector. *)
val create : ?latency:float -> engine:Engine.t -> n:int -> unit -> 'm t

val n : 'm t -> int

(** Override the per-link base latency (default: the [latency] given to
    {!create}, itself defaulting to 1.0 — one delay unit). *)
val set_latency : 'm t -> (src:int -> dst:int -> float) -> unit

(** Random per-message latency in [[min, max)]: messages may overtake
    each other (the model's links are not FIFO).  Reproducible via the
    supplied seeded RNG. *)
val randomize_latency :
  'm t -> rng:Random.State.t -> min:float -> max:float -> unit

(** Messages sent before [at] suffer [extra] additional delay — the
    asynchronous prefix of a partially synchronous execution. *)
val set_gst : 'm t -> at:float -> extra:(src:int -> dst:int -> now:float -> float) -> unit

(** Sever the given ordered pairs.  Messages are buffered, not dropped
    (links are no-loss), and flushed by {!heal}.  Raises [Invalid_argument]
    if a pair names a pid outside [0, n). *)
val partition : 'm t -> (int * int) list -> unit

val heal : 'm t -> unit

(** The currently severed ordered pairs (empty after {!heal}). *)
val severed : 'm t -> (int * int) list

(** Sending capability of one process; pins the sender identity. *)
type 'm endpoint

val endpoint : 'm t -> int -> 'm endpoint

val endpoint_pid : 'm endpoint -> int

val send : 'm endpoint -> dst:int -> 'm -> unit

(** Send to all n processes, self included. *)
val broadcast : 'm endpoint -> 'm -> unit

val broadcast_others : 'm endpoint -> 'm -> unit

(** Block until a message arrives; returns [(sender, payload)]. *)
val recv : 'm endpoint -> int * 'm [@@sim.yields]

val recv_timeout : 'm endpoint -> float -> (int * 'm) option [@@sim.yields]

(** Queued undelivered messages for this endpoint. *)
val pending : 'm endpoint -> int

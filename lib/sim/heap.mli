(** Binary min-heap keyed by [(time, seq)].

    Two entries with the same time are ordered by their sequence number, so
    scheduling is fully deterministic. *)

type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t

(** [create ~filler ()] is an empty heap.  [filler] is the payload
    written into every slot the heap does not hold an entry in, so an
    entry that was popped or cleared is not kept alive by its old
    slot. *)
val create : filler:'a -> unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

(** Peak size ever reached (high watermark); feeds the engine's
    [sim.heap.peak_depth] gauge. *)
val max_size : 'a t -> int

(** [push h ~time ~seq payload] inserts an entry. *)
val push : 'a t -> time:float -> seq:int -> 'a -> unit

(** [pop h] removes and returns the least entry, or [None] if empty. *)
val pop : 'a t -> 'a entry option

(** [peek h] returns the least entry without removing it. *)
val peek : 'a t -> 'a entry option

(** [clear h] drops every entry; {!max_size} is kept. *)
val clear : 'a t -> unit

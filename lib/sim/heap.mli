(** Binary min-heap keyed by [(time, seq)].

    Two entries with the same time are ordered by their sequence number, so
    scheduling is fully deterministic. *)

type 'a t

(** [create ~filler ()] is an empty heap.  [filler] is the payload
    written into every slot the heap does not hold an entry in, so an
    entry that was popped or cleared is not kept alive by its old
    slot. *)
val create : filler:'a -> unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

(** [push h ~time ~seq payload] inserts an entry. *)
val push : 'a t -> time:float -> seq:int -> 'a -> unit

(** The least entry's time.  Raises [Invalid_argument] if [h] is
    empty. *)
val min_time : 'a t -> float

(** [pop h] removes the least entry and returns its payload.  Raises
    [Invalid_argument] if [h] is empty. *)
val pop : 'a t -> 'a

(** [clear h] drops every entry. *)
val clear : 'a t -> unit

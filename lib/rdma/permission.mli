(** Memory-region permissions (Section 3): three disjoint process sets
    (R, W, RW). *)

module Pset : Set.S with type elt = int

type t = { read : Pset.t; write : Pset.t; readwrite : Pset.t }

(** Raises [Invalid_argument] if the three sets are not disjoint. *)
val make : ?read:int list -> ?write:int list -> ?readwrite:int list -> unit -> t

val none : t

(** SWMR region owned by [writer] among processes [0..n-1]. *)
val swmr : writer:int -> n:int -> t

(** Every process can read and write — the disk model. *)
val all_readwrite : n:int -> t

val read_all : n:int -> t

(** Everyone reads, exactly [writer] also writes (Algorithm 7 line 2). *)
val exclusive_writer : writer:int -> n:int -> t

val can_read : t -> int -> bool

val can_write : t -> int -> bool

(** The single process with write access, if exactly one. *)
val sole_writer : t -> int option

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** [legalChange(p, mr, old, new)] — whether process [p] may install
    [requested] over [current] on [region]. *)
type legal_change = pid:int -> region:string -> current:t -> requested:t -> bool

(** Always refuse: static permissions. *)
val static_permissions : legal_change

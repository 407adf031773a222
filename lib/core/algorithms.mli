(** The table of single-instance algorithms behind the CLI's [run],
    [fuzz] and [list] commands and the chaos scenario registry. *)

open Rdma_mm

(** Run one instance on a fresh cluster of [n] processes and [m]
    memories.  The crash-model entries raise [Invalid_argument] when
    given Byzantine behaviours. *)
type exec =
  seed:int ->
  n:int ->
  m:int ->
  inputs:string array ->
  faults:Fault.t list ->
  byzantine:Instance.byzantine ->
  prepare:(string Cluster.t -> unit) ->
  Report.t

type t = {
  name : string;
  descr : string;
  needs_memories : bool;  (** [false]: the run ignores [m] and uses none *)
  exec : exec;
}

(** In listing order. *)
val all : t list

val find : string -> t option

(** The exec of the entry named [name]; raises [Invalid_argument] when
    there is none. *)
val exec : string -> exec

(** Read-only view of a run's named counters, kept only because
    [bench/e2e/kv_session.ml] reads them through this name.  Everything
    else reads {!Rdma_obs.Obs.counter} on the engine's collector. *)

type t = Rdma_obs.Obs.t

(** [get t name] is {!Rdma_obs.Obs.counter}. *)
val get : t -> string -> int

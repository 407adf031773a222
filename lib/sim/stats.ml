(* Read-only alias for the collector's counters; see stats.mli. *)

type t = Rdma_obs.Obs.t

let get = Rdma_obs.Obs.counter

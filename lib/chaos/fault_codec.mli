(** JSON codec for {!Rdma_consensus.Fault} schedules — the repro-artifact
    wire format.  Deterministic: encoding the same schedule always yields
    the same bytes. *)

open Rdma_consensus
open Rdma_obs

val of_json : Json.t -> (Fault.t, string) result

val schedule_to_json : Fault.t list -> Json.t

val schedule_of_json : Json.t -> (Fault.t list, string) result

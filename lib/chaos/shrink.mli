(** Minimization of violating fault schedules by deterministic
    re-execution, organised as step-batched delta debugging: each step
    evaluates every single-drop candidate as one batch and adopts the
    first still-failing candidate.  Termination with a fully evaluated
    batch certifies 1-minimality. *)

open Rdma_consensus

(** [minimize ~eval faults] shrinks to a fixpoint.  [eval candidates]
    must return one still-fails verdict per candidate in candidate
    order; each verdict must be a deterministic function of its
    candidate alone, which lets callers evaluate the batch on several
    domains without affecting the result or the probe count.  Returns
    the minimized schedule and the number of probe runs spent, at most
    200: the last batch is truncated deterministically if needed. *)
val minimize :
  eval:(Fault.t list list -> bool list) -> Fault.t list -> Fault.t list * int

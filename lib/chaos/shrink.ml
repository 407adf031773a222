(* Counterexample minimization by step-batched delta debugging.

   Each step materializes EVERY single-drop candidate of the current
   schedule as one batch, evaluates the whole batch, and adopts the
   candidate at the first (lowest-index) still-failing position.  When
   no candidate in a full batch fails, the schedule is 1-minimal by
   construction: the batch just demonstrated that every single removal
   loses the failure.

   The batch shape is what makes the shrinker parallelizable without
   losing determinism: [eval] receives the complete candidate list for
   the step and may probe the candidates on any number of domains —
   each probe is a full deterministic re-run seeded only by the
   candidate — while the selection rule (first failing index) and the
   probe accounting (every submitted candidate counts) depend only on
   the batch contents, never on completion order.  A run cap
   ([max_runs]) bounds the worst case; when the remaining budget cannot
   cover a full batch, the batch is truncated to the first [budget]
   candidates so the probe count stays identical at every [-j]. *)

open Rdma_consensus

(* Remove the element at [i]. *)
let drop i l = List.filteri (fun j _ -> j <> i) l

(* First index whose verdict is [true], if any. *)
let first_failing verdicts =
  let rec go i = function
    | [] -> None
    | true :: _ -> Some i
    | false :: rest -> go (i + 1) rest
  in
  go 0 verdicts

(* The probe cap of one minimization. *)
let max_runs = 200

(* [minimize ~eval faults] returns the minimized schedule and the number
   of probe runs spent.  [eval candidates] must return one still-fails
   verdict per candidate, in candidate order, each verdict a
   deterministic function of its candidate alone. *)
let minimize ~eval (faults : Fault.t list) =
  let runs = ref 0 in
  let rec step faults =
    let len = List.length faults in
    let budget = max_runs - !runs in
    if len = 0 || budget <= 0 then faults
    else begin
      let width = min len budget in
      let candidates = List.init width (fun i -> drop i faults) in
      runs := !runs + width;
      match first_failing (eval candidates) with
      | Some i -> step (drop i faults)
      | None ->
          (* A full batch with no failing candidate certifies
             1-minimality; a truncated batch just means the budget ran
             out.  Either way there is nothing more to drop. *)
          faults
    end
  in
  let minimized = step faults in
  (minimized, !runs)

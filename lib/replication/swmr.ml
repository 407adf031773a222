(* Fault-tolerant SWMR registers over crash-prone memories.

   The construction of Section 4.1 ("Non-equivocation in our model"),
   after Afek et al. and Attiya-Bar-Noy-Dolev: a logical register is
   replicated in the same region/register slot of every memory.

   - write(v): write v to all memories, wait for a majority to respond.
   - read(): read from all memories, wait for a majority to respond; if
     exactly one distinct non-⊥ value v appears among the responses,
     return v; otherwise return ⊥.

   With a single writer whose writes are sequential and m ≥ 2fM + 1, this
   gives the regular(-ish) semantics the paper's algorithms rely on:
   reads that do not overlap a write return the last written value; a
   read overlapping a write (or observing an equivocating writer who
   wrote different values to different replicas) may return ⊥.  Registers
   used by the paper's algorithms are written at most once per slot, so ⊥
   simply means "retry later".

   An [Ack]/[Nak] from [write] reflects the permission check at the
   memories: [Nak] as soon as any responding memory refused (write
   permission revoked there), which the algorithms treat as "a rival took
   over". *)

open Rdma_mem

type handle = { client : Memclient.t; region : string }

let attach ~client ~region = { client; region }

let majority t = Memclient.majority t.client

(* Write to all replicas, wait for a majority of responses; Ack iff all
   received responses were acks. *)
let write t ~reg value =
  Memclient.write_quorum t.client ~region:t.region ~reg value
[@@simlint.write_issuer]

(* Read all replicas, wait for a majority of responses, apply the
   exactly-one-distinct-value rule. *)
let read t ~reg =
  let responses = Memclient.read_quorum t.client ~region:t.region ~reg in
  let values =
    List.filter_map
      (fun (_, r) -> match r with Memory.Read v -> v | Memory.Read_nak -> None)
      responses
  in
  match List.sort_uniq String.compare values with
  | [ v ] -> Some v
  | _ -> None

(* How long a repair sweep waits for every replica, in delays. *)
let grace = 10.0

(* Quorum read with write-back repair.  When the responding majority
   agrees on exactly one value v, any responding replica that did *not*
   confirm v — it returned ⊥, a divergent value, or nak'd (typically a
   restarted memory whose register is stale) — gets v written back, and
   the repair writes are awaited so a completed call really has restored
   full replication among the live replicas.

   Unlike [read], the sweep does not settle for the first majority: it
   waits up to [grace] for *every* replica.  Under strict ordering the
   distinction is invisible (all live replicas respond at the same
   virtual instant, so the majority snapshot already contains them), but
   a weak ordering model perturbs response times, and a repair sweep
   that only looks at the fastest majority can then miss the rejoined
   replica on every sweep of a bounded serving window — the replica
   loses each quorum race and is never observed, let alone repaired.
   The grace covers the response spread of the stock weak modes
   (completion-lag lag ≤ 6, reordered-qp window ≤ 4) with margin; a
   crashed replica costs one grace wait per sweep and is skipped.
   Fewer than a majority of responses within [grace] returns ⊥.

   Repair is deliberately *not* folded into [read]: the paper's
   non-equivocating broadcast (Algorithm 2) depends on divergent replicas
   staying observable — a reader that "repaired" an equivocating writer's
   replicas would destroy the evidence.  Callers opt in where lost
   replicas are the expected cause of divergence (crash-model recovery),
   and the writes carry the caller's pid, so repair is only possible
   where the caller holds write permission. *)
let read_repair t ~reg =
  let ivars = Memclient.read_all_async t.client ~region:t.region ~reg in
  let responses =
    Rdma_sim.Par.await_k_timeout ivars (Array.length ivars) grace
  in
  if List.length responses < majority t then None
  else
    let values =
      List.filter_map
        (fun (_, r) ->
          match r with Memory.Read v -> v | Memory.Read_nak -> None)
        responses
    in
    match List.sort_uniq String.compare values with
    | [ v ] ->
        let stale =
          List.filter
            (fun (_, r) ->
              match r with
              | Memory.Read (Some v') -> v' <> v
              | Memory.Read None | Memory.Read_nak -> true)
            responses
        in
        let repairs =
          List.map
            (fun (i, _) ->
              Memory.write_async
                (Memclient.mem t.client i)
                ~from:(Memclient.pid t.client) ~region:t.region ~reg v)
            stale
        in
        if ((repairs <> []) [@simlint.allow "F1 the guard checks the repair list is non-empty, not that the \
write-backs landed; SWMR registers are write-once, so a lagged repair \
is indistinguishable from the pre-repair ⊥ every reader already \
treats as retry (EXPERIMENTS.md W2)"]) then begin
          ignore (Rdma_sim.Par.await_all (Array.of_list repairs));
          match Memclient.obs t.client with
          | Some obs ->
              Rdma_obs.Obs.count obs "swmr.repairs" (List.length repairs)
          | None -> ()
        end;
        Some v
    | _ -> None

(* Change the permission of the region on every memory, majority-waited. *)
let change_permission t ~perm =
  ignore (Memclient.change_permission_quorum t.client ~region:t.region ~perm)

(* The nemesis: a seeded generator of adversarial fault schedules.

   Two modes of attack:

   - Blind schedules: random draws over the full fault vocabulary
     (process/memory/machine crashes, leader flapping, partitions +
     heals, latency storms, a delayed GST), constrained by a per-
     algorithm [budget] so generated runs stay inside the algorithm's
     fault model — e.g. at most a minority of processes for Paxos, at
     most fP processes and fM memories for Protected Paxos.  Within the
     budget, safety AND post-GST liveness must hold, so the oracle
     checks both.

   - Telemetry-driven triggers: instead of firing at a blind time, a
     trigger subscribes to the run's span stream and fires its action
     the instant an observed protocol phase opens (e.g. crash the leader
     when [pmp.phase2] starts) — the adversarial interleavings at phase
     boundaries where consensus bugs hide.

   Everything is drawn from a [seed]-keyed PRNG: the same seed always
   yields the same schedule, which is what makes violations replayable
   and shrinkable. *)

open Rdma_consensus

type budget = {
  horizon : float;  (* faults are injected in [0, horizon) *)
  max_process_crashes : int;  (* shared pool: crashes + Byzantine + triggers *)
  max_memory_crashes : int;
  max_machine_crashes : int;
  max_leader_flaps : int;
  allow_partition : bool;
  allow_latency : bool;
  max_gst : float;  (* 0. = no asynchronous prefix *)
  max_extra : float;  (* pre-GST adversarial delay bound *)
  max_faults : int;  (* schedule length cap *)
  max_recoveries : int;
      (* how many memory/machine crashes get paired with a later
         Recover_memory/Restart_machine; recoveries ride along outside
         the max_faults cap *)
  orderings : Rdma_mem.Ordering.mode list;
      (* weak memory-ordering models the nemesis may install (one
         Set_ordering per case, drawn alongside "leave it strict");
         empty = always strict.  The pick rides outside max_faults: it
         is hardware configuration, not an injected event *)
}

(* Lift the crash constraints of a budget: every process and memory
   becomes fair game.  Schedules drawn from an unleashed budget step
   outside the algorithm's fault model, so the oracle is expected to
   find violations — this is how the shrinker is exercised. *)
let unleash ~n ~m budget =
  {
    budget with
    max_process_crashes = n;
    max_memory_crashes = m;
    max_faults = budget.max_faults + 2;
  }

type action = Crash_leader | Crash_opener | Flip_leader

type trigger = { phase : string; occurrence : int; action : action }

type case = {
  case_seed : int;
  faults : Fault.t list;
  byz : (int * string) list;  (* pid -> attack name from the scenario pool *)
  triggers : trigger list;
}

let action_name = function
  | Crash_leader -> "crash-leader"
  | Crash_opener -> "crash-opener"
  | Flip_leader -> "flip-leader"

let action_of_name = function
  | "crash-leader" -> Some Crash_leader
  | "crash-opener" -> Some Crash_opener
  | "flip-leader" -> Some Flip_leader
  | _ -> None

(* Draw [k] distinct elements from [pool] (in draw order). *)
let sample rng k pool =
  let pool = ref pool in
  let out = ref [] in
  for _ = 1 to k do
    match !pool with
    | [] -> ()
    | l ->
        let idx = Random.State.int rng (List.length l) in
        let picked = List.nth l idx in
        out := picked :: !out;
        pool := List.filter (fun x -> x <> picked) l
  done;
  List.rev !out

let at rng horizon = Random.State.float rng horizon

(* Generate one case.  The process-fault pool [max_process_crashes] is
   shared between Byzantine replacements, trigger-fired crashes, and
   scheduled crashes, mirroring the fault models where crashed and
   Byzantine processes count against the same fP. *)
let generate ~budget ~n ~m ?(attack_pool = []) ?(max_byz = 0)
    ?(phases = []) ?(adversary = false) ?ordering ~seed () =
  let rng = Random.State.make [| 0x6e656d65; seed |] in
  (* Ordering model first.  A forced [?ordering] (scenario config / CLI
     --ordering) consumes no draws, so the rest of the schedule is
     byte-identical to the strict run of the same seed — weak-mode grids
     differ from their strict baseline only in the model.  Otherwise the
     budget's pool is drawn from, with "leave it strict" as one more
     face of the die; an empty pool consumes no draws either, keeping
     legacy schedules stable. *)
  let ordering_faults =
    match ordering with
    | Some mode ->
        if Rdma_mem.Ordering.equal mode Rdma_mem.Ordering.Strict then []
        else [ Fault.Set_ordering { mode } ]
    | None -> (
        match budget.orderings with
        | [] -> []
        | pool -> (
            match Random.State.int rng (List.length pool + 1) with
            | 0 -> []
            | idx -> [ Fault.Set_ordering { mode = List.nth pool (idx - 1) } ]))
  in
  let fp_pool = ref budget.max_process_crashes in
  (* Byzantine replacements: up to max_byz, drawn from the shared pool. *)
  let byz =
    let want =
      if max_byz > 0 && attack_pool <> [] then
        Random.State.int rng (min max_byz !fp_pool + 1)
      else 0
    in
    let pids = sample rng want (List.init n Fun.id) in
    fp_pool := !fp_pool - List.length pids;
    List.map
      (fun pid ->
        (pid, List.nth attack_pool (Random.State.int rng (List.length attack_pool))))
      pids
  in
  let is_byz pid = List.mem_assoc pid byz in
  (* Ω must eventually point at a correct process: if the initial leader
     (p0) went Byzantine, repoint the oracle at the lowest correct pid. *)
  let leader_fix =
    if is_byz 0 then
      match List.filter (fun p -> not (is_byz p)) (List.init n Fun.id) with
      | pid :: _ -> [ Fault.Set_leader { pid; at = 4.0 +. at rng 8.0 } ]
      | [] -> []
    else []
  in
  (* One telemetry trigger per case in adversary mode; a crash action
     reserves a slot from the shared process pool. *)
  let triggers =
    if adversary && phases <> [] then begin
      let phase = List.nth phases (Random.State.int rng (List.length phases)) in
      let occurrence = 1 + Random.State.int rng 2 in
      let action =
        if !fp_pool > 0 then begin
          decr fp_pool;
          if Random.State.bool rng then Crash_leader else Crash_opener
        end
        else Flip_leader
      in
      [ { phase; occurrence; action } ]
    end
    else []
  in
  (* Scheduled faults.  Crash targets are drawn without replacement (a
     second crash of the same pid tests nothing), and leader flaps avoid
     both Byzantine pids and crash targets so Ω stays eventually
     accurate. *)
  let mem_pool = ref budget.max_memory_crashes in
  let machine_pool = ref budget.max_machine_crashes in
  let recovery_pool = ref budget.max_recoveries in
  (* recoveries trail their crash by a grace gap so the cluster observes
     the outage before the rejoin protocol starts *)
  let recover_at crash_at = crash_at +. 2.0 +. at rng (budget.horizon /. 2.) in
  let flap_pool = ref budget.max_leader_flaps in
  let crashable = ref (List.filter (fun p -> not (is_byz p)) (List.init n Fun.id)) in
  let mem_crashable = ref (List.init m Fun.id) in
  let async_done = ref false in
  let latency_done = ref false in
  let partition_done = ref false in
  let faults = ref [] in
  let crash_targets = ref [] in
  let take_pid () =
    match sample rng 1 !crashable with
    | [ pid ] ->
        crashable := List.filter (( <> ) pid) !crashable;
        crash_targets := pid :: !crash_targets;
        Some pid
    | _ -> None
  in
  let take_mid () =
    match sample rng 1 !mem_crashable with
    | [ mid ] ->
        mem_crashable := List.filter (( <> ) mid) !mem_crashable;
        Some mid
    | _ -> None
  in
  let count = 1 + Random.State.int rng (max 1 budget.max_faults) in
  for _ = 1 to count do
    let menu =
      List.concat
        [
          (if !fp_pool > 0 && !crashable <> [] then [ `Crash_process ] else []);
          (if !mem_pool > 0 && !mem_crashable <> [] then [ `Crash_memory ] else []);
          (if
             !machine_pool > 0 && !fp_pool > 0 && !mem_pool > 0
             && !crashable <> [] && !mem_crashable <> []
           then [ `Crash_machine ]
           else []);
          (if !flap_pool > 0 && n > 1 then [ `Set_leader ] else []);
          (if budget.max_gst > 0. && not !async_done then [ `Async ] else []);
          (if budget.allow_latency && not !latency_done then [ `Latency ] else []);
          (if budget.allow_partition && n > 1 && not !partition_done then
             [ `Partition ]
           else []);
        ]
    in
    if menu <> [] then
      match List.nth menu (Random.State.int rng (List.length menu)) with
      | `Crash_process -> (
          match take_pid () with
          | Some pid ->
              decr fp_pool;
              faults := Fault.Crash_process { pid; at = at rng budget.horizon } :: !faults
          | None -> ())
      | `Crash_memory -> (
          match take_mid () with
          | Some mid ->
              decr mem_pool;
              let crash_at = at rng budget.horizon in
              faults := Fault.Crash_memory { mid; at = crash_at } :: !faults;
              if !recovery_pool > 0 then begin
                decr recovery_pool;
                faults :=
                  Fault.Recover_memory { mid; at = recover_at crash_at }
                  :: !faults
              end
          | None -> ())
      | `Crash_machine -> (
          match (take_pid (), take_mid ()) with
          | Some pid, Some mid ->
              decr fp_pool;
              decr mem_pool;
              decr machine_pool;
              let crash_at = at rng budget.horizon in
              faults := Fault.Crash_machine { pid; mid; at = crash_at } :: !faults;
              if !recovery_pool > 0 then begin
                decr recovery_pool;
                faults :=
                  Fault.Restart_machine { pid; mid; at = recover_at crash_at }
                  :: !faults
              end
          | _ -> ())
      | `Set_leader -> (
          (* flap only to processes that stay alive and honest *)
          let safe =
            List.filter
              (fun p -> (not (is_byz p)) && not (List.mem p !crash_targets))
              (List.init n Fun.id)
          in
          match sample rng 1 safe with
          | [ pid ] ->
              decr flap_pool;
              faults := Fault.Set_leader { pid; at = at rng budget.horizon } :: !faults
          | _ -> ())
      | `Async ->
          async_done := true;
          faults :=
            Fault.Async_until
              {
                gst = 1.0 +. at rng budget.max_gst;
                extra = 1.0 +. at rng budget.max_extra;
              }
            :: !faults
      | `Latency ->
          latency_done := true;
          let min = 0.5 +. at rng 1.0 in
          faults :=
            Fault.Random_latency { min; max = min +. 0.5 +. at rng 4.0 } :: !faults
      | `Partition ->
          (* isolate one process from a nonempty set of peers, both
             directions, and always heal within the horizon *)
          partition_done := true;
          let victim = Random.State.int rng n in
          let others = List.filter (( <> ) victim) (List.init n Fun.id) in
          let peers =
            match List.filter (fun _ -> Random.State.bool rng) others with
            | [] -> [ List.nth others (Random.State.int rng (List.length others)) ]
            | l -> l
          in
          let pairs =
            List.concat_map (fun p -> [ (victim, p); (p, victim) ]) peers
          in
          let start = at rng (budget.horizon /. 2.) in
          let heal_at = start +. 2.0 +. at rng (budget.horizon /. 2.) in
          faults :=
            Fault.Heal { at = heal_at } :: Fault.Partition { pairs; at = start }
            :: !faults
  done;
  {
    case_seed = seed;
    faults = ordering_faults @ List.rev !faults @ leader_fix;
    byz;
    triggers;
  }

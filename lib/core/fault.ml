(* Declarative fault schedules, applied to a cluster before a run.

   These cover the model's failure and asynchrony knobs (Section 3):
   process crashes, memory crashes, Ω behaviour, network partitions
   (buffered, never dropped — links are no-loss), and the asynchronous
   prefix of a partially synchronous execution. *)

open Rdma_sim
open Rdma_mm
open Rdma_net

type t =
  | Crash_process of { pid : int; at : float }
  | Crash_memory of { mid : int; at : float }
  | Set_leader of { pid : int; at : float }
  | Async_until of { gst : float; extra : float }
      (* messages sent before [gst] take [extra] additional delay *)
  | Random_latency of { min : float; max : float }
      (* per-message latency in [min, max): messages may overtake each
         other (links are not FIFO in the model) *)
  | Crash_machine of { pid : int; mid : int; at : float }
      (* a full-system crash (Section 7): the process and its co-located
         memory fail at the same instant *)
  | Partition of { pairs : (int * int) list; at : float }
      (* sever the ordered pairs at [at]; messages buffer until Heal *)
  | Heal of { at : float }
  | Recover_memory of { mid : int; at : float }
      (* bring a crashed memory back EMPTY under a fresh epoch (the
         rejoin protocol re-establishes its permissions); a benign no-op
         when the memory is not crashed at [at], so shrunk schedules that
         dropped the paired crash stay valid *)
  | Restart_machine of { pid : int; mid : int; at : float }
      (* restart a full machine: the memory rejoins empty and the process
         re-runs its program from the top *)
  | Set_ordering of { mode : Rdma_mem.Ordering.mode }
      (* install a weak memory-ordering model on every memory, at
         schedule-install time (a NIC's ordering behaviour is a property
         of the hardware, not a mid-run event); per-op lag/reorder
         decisions come from the run's seed, so replay and ddmin shrink
         reproduce them verbatim *)
[@@simlint.protocol]
(* simlint D3: a new fault constructor must be handled (or consciously
   ignored) by every schedule generator, codec, and oracle — no silent
   wildcard fall-through. *)

(* Every fault names its targets before the run starts, so a target
   outside the cluster is a schedule bug, not a benign no-op: a typo'd
   pid would otherwise silently test nothing.  A negative asynchrony
   extra would schedule deliveries in the past. *)
let fault_problem ~n ~m fault =
  let pid p =
    if p < 0 || p >= n then
      Some (Printf.sprintf "pid %d outside cluster of %d processes" p n)
    else None
  in
  let mid i =
    if i < 0 || i >= m then
      Some (Printf.sprintf "mid %d outside cluster of %d memories" i m)
    else None
  in
  let first a b = match a with Some _ -> a | None -> b in
  match fault with
  | Crash_process { pid = p; _ } | Set_leader { pid = p; _ } -> pid p
  | Crash_memory { mid = i; _ } | Recover_memory { mid = i; _ } -> mid i
  | Crash_machine { pid = p; mid = i; _ } | Restart_machine { pid = p; mid = i; _ }
    ->
      first (pid p) (mid i)
  | Partition { pairs; _ } ->
      List.find_map (fun (src, dst) -> first (pid src) (pid dst)) pairs
  | Async_until { extra; _ } ->
      if extra < 0. then
        Some (Printf.sprintf "async-until extra %.1f is negative" extra)
      else None
  | Random_latency _ | Heal _ | Set_ordering _ -> None

let problem ~n ~m faults = List.find_map (fault_problem ~n ~m) faults

let apply cluster faults =
  Option.iter
    (fun msg -> invalid_arg ("Fault.apply: " ^ msg))
    (problem ~n:(Cluster.n cluster) ~m:(Cluster.m cluster) faults);
  let engine = Cluster.engine cluster in
  let at_time at f = Engine.schedule engine (max 0. (at -. Engine.now engine)) f in
  List.iter
    (fun fault ->
      match fault with
      | Crash_process { pid; at } -> Cluster.crash_process_at cluster ~at pid
      | Crash_memory { mid; at } -> Cluster.crash_memory_at cluster ~at mid
      | Set_leader { pid; at } ->
          Omega.set_leader_after (Cluster.omega cluster) at pid
      | Async_until { gst; extra } ->
          Network.set_gst (Cluster.net cluster) ~at:gst
            ~extra:(fun ~src:_ ~dst:_ ~now:_ -> extra)
      | Random_latency { min; max } ->
          Network.randomize_latency (Cluster.net cluster)
            ~rng:(Engine.rng (Cluster.engine cluster))
            ~min ~max
      | Crash_machine { pid; mid; at } ->
          Cluster.crash_process_at cluster ~at pid;
          Cluster.crash_memory_at cluster ~at mid
      | Partition { pairs; at } ->
          at_time at (fun () -> Network.partition (Cluster.net cluster) pairs)
      | Heal { at } -> at_time at (fun () -> Network.heal (Cluster.net cluster))
      | Recover_memory { mid; at } -> Cluster.restart_memory_at cluster ~at mid
      | Restart_machine { pid; mid; at } ->
          Cluster.restart_machine_at cluster ~at ~pid ~mid
      | Set_ordering { mode } -> Cluster.set_ordering cluster mode)
    faults

let pp ppf = function
  | Crash_process { pid; at } -> Fmt.pf ppf "crash p%d@%.1f" pid at
  | Crash_memory { mid; at } -> Fmt.pf ppf "crash mu%d@%.1f" mid at
  | Set_leader { pid; at } -> Fmt.pf ppf "leader:=p%d@%.1f" pid at
  | Async_until { gst; extra } -> Fmt.pf ppf "async(+%.1f)until@%.1f" extra gst
  | Random_latency { min; max } -> Fmt.pf ppf "latency~U[%.1f,%.1f)" min max
  | Crash_machine { pid; mid; at } -> Fmt.pf ppf "crash machine(p%d,mu%d)@%.1f" pid mid at
  | Partition { pairs; at } ->
      Fmt.pf ppf "partition{%a}@%.1f"
        Fmt.(list ~sep:(any ",") (fun ppf (s, d) -> Fmt.pf ppf "%d>%d" s d))
        pairs at
  | Heal { at } -> Fmt.pf ppf "heal@%.1f" at
  | Recover_memory { mid; at } -> Fmt.pf ppf "recover mu%d@%.1f" mid at
  | Restart_machine { pid; mid; at } ->
      Fmt.pf ppf "restart machine(p%d,mu%d)@%.1f" pid mid at
  | Set_ordering { mode } -> Fmt.pf ppf "ordering:=%a" Rdma_mem.Ordering.pp mode

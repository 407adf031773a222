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
   extra or latency bound would schedule deliveries in the past, a NaN
   time, extra or bound would put an event nowhere in virtual time, and
   an empty latency range has no latency to draw.  An ordering parameter
   is a per-op lag or window: negative, NaN or infinite, it would put a
   memory operation in the past or nowhere. *)
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
  let time at =
    if Float.is_nan at then Some "fault time nan is not a number" else None
  in
  let first a b = match a with Some _ -> a | None -> b in
  match fault with
  | Crash_process { pid = p; at } | Set_leader { pid = p; at } -> first (pid p) (time at)
  | Crash_memory { mid = i; at } | Recover_memory { mid = i; at } ->
      first (mid i) (time at)
  | Crash_machine { pid = p; mid = i; at } | Restart_machine { pid = p; mid = i; at }
    ->
      first (first (pid p) (mid i)) (time at)
  | Partition { pairs; at } ->
      first (List.find_map (fun (src, dst) -> first (pid src) (pid dst)) pairs) (time at)
  | Heal { at } -> time at
  | Async_until { gst; extra } ->
      if Float.is_nan extra then Some "async-until extra nan is not a number"
      else if extra < 0. then
        Some (Printf.sprintf "async-until extra %.1f is negative" extra)
      else time gst
  | Random_latency { min; max } ->
      let bound b =
        if Float.is_nan b then Some "latency bound nan is not a number"
        else if b < 0. then Some (Printf.sprintf "latency bound %.1f is negative" b)
        else None
      in
      first (first (bound min) (bound max))
        (if max <= min then
           Some (Printf.sprintf "latency range [%.1f,%.1f) is empty" min max)
         else None)
  | Set_ordering { mode } -> (
      let param p =
        let what = Rdma_mem.Ordering.name mode ^ " parameter" in
        if Float.is_nan p then Some (what ^ " nan is not a number")
        else if p < 0. then Some (Printf.sprintf "%s %.1f is negative" what p)
        else if not (Float.is_finite p) then Some (what ^ " inf is not finite")
        else None
      in
      match mode with
      | Rdma_mem.Ordering.Strict -> None
      | Completion_lag { max_lag } -> param max_lag
      | Reorder_qp { window } -> param window)

let problem ~n ~m faults = List.find_map (fault_problem ~n ~m) faults

(* Every timed fault fires at its absolute virtual time, clamped to now:
   one engine event per action, each calling the cluster's or Ω's
   immediate transition.  A machine crash is two events at one instant,
   the process's first. *)
let apply cluster faults =
  Option.iter
    (fun msg -> invalid_arg ("Fault.apply: " ^ msg))
    (problem ~n:(Cluster.n cluster) ~m:(Cluster.m cluster) faults);
  let engine = Cluster.engine cluster in
  let at_time at f = Engine.schedule engine (max 0. (at -. Engine.now engine)) f in
  List.iter
    (fun fault ->
      match fault with
      | Crash_process { pid; at } ->
          at_time at (fun () -> Cluster.crash_process cluster pid)
      | Crash_memory { mid; at } ->
          at_time at (fun () -> Cluster.crash_memory cluster mid)
      | Set_leader { pid; at } ->
          at_time at (fun () -> Omega.set_leader (Cluster.omega cluster) pid)
      | Async_until { gst; extra } ->
          Network.set_gst (Cluster.net cluster) ~at:gst
            ~extra:(fun ~src:_ ~dst:_ ~now:_ -> extra)
      | Random_latency { min; max } ->
          Network.randomize_latency (Cluster.net cluster)
            ~rng:(Engine.rng (Cluster.engine cluster))
            ~min ~max
      | Crash_machine { pid; mid; at } ->
          at_time at (fun () -> Cluster.crash_process cluster pid);
          at_time at (fun () -> Cluster.crash_memory cluster mid)
      | Partition { pairs; at } ->
          at_time at (fun () -> Network.partition (Cluster.net cluster) pairs)
      | Heal { at } -> at_time at (fun () -> Network.heal (Cluster.net cluster))
      | Recover_memory { mid; at } ->
          at_time at (fun () -> Cluster.restart_memory cluster mid)
      | Restart_machine { pid; mid; at } ->
          at_time at (fun () -> Cluster.restart_machine cluster ~pid ~mid)
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

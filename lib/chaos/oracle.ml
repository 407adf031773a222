(* The invariant oracle: checks the paper's claims on every chaos run.

   - Agreement: no two correct processes decide differently (uniform
     agreement for the crash algorithms; containment of Byzantine
     processes for the weak-Byzantine ones — the Byzantine pids are
     excluded, everything the correct ones decide must still agree).
   - Validity: in crash-only runs every decision is some process's
     input.  With Byzantine processes the algorithms guarantee only weak
     validity (inputs differ, so it is vacuous) and the check is skipped.
   - Post-GST termination: a virtual-time watchdog fires at the
     scenario's deadline — comfortably past GST, every scheduled heal,
     and the protocols' retry budgets — and records every correct,
     uncrashed process that has not decided by then.  Within the fault
     budget this set must be empty.

   - Repair: when a scenario provides a repair predicate, every memory
     that rejoined (a [Mem_restart] on the stream) and is still alive at
     the watchdog must satisfy it — typically "no stale registers left",
     i.e. the protocol re-replicated its state onto the rejoined memory.

   The oracle is telemetry-driven: it learns decisions by subscribing to
   the typed [Decide] events every protocol already emits, so it needs
   no per-algorithm wiring. *)

open Rdma_sim
open Rdma_mem
open Rdma_mm
open Rdma_obs
open Rdma_consensus

type violation =
  | Agreement of { decisions : (int * string) list }
  | Validity of { pid : int; value : string }
  | Liveness of { undecided : int list; deadline : float }
  | Repair of { mid : int; detail : string }
  | Aborted of { error : string }

let pp_violation ppf = function
  | Agreement { decisions } ->
      Fmt.pf ppf "agreement: conflicting decisions %a"
        Fmt.(
          list ~sep:(any ", ") (fun ppf (pid, v) -> Fmt.pf ppf "p%d=%S" pid v))
        decisions
  | Validity { pid; value } ->
      Fmt.pf ppf "validity: p%d decided %S, which nobody proposed" pid value
  | Liveness { undecided; deadline } ->
      Fmt.pf ppf "liveness: %a undecided at watchdog deadline %.1f"
        Fmt.(list ~sep:(any ",") (fun ppf pid -> Fmt.pf ppf "p%d" pid))
        undecided deadline
  | Repair { mid; detail } ->
      Fmt.pf ppf "repair: mu%d not re-replicated at the watchdog (%s)" mid detail
  | Aborted { error } -> Fmt.pf ppf "aborted: %s" error

let violation_to_string v = Fmt.str "%a" pp_violation v

type watch = {
  deadline : float;
  mutable decided : (int * string * float) list;  (* (pid, value, at), reverse *)
  mutable missed : int list;  (* undecided correct pids at the deadline *)
  mutable restarted : int list;  (* mids that rejoined under a fresh epoch *)
  mutable unrepaired : (int * string) list;  (* (mid, detail) at the deadline *)
  mutable fired : bool;
}

(* Install the decision listener and the watchdog on a cluster (call
   from a run's [prepare] hook, before the engine starts).  [repair],
   when given, is evaluated at the watchdog for every rejoined memory
   that is still alive: [Some detail] means the protocol failed to
   re-replicate onto it. *)
let install ?repair ~deadline cluster =
  let w =
    {
      deadline;
      decided = [];
      missed = [];
      restarted = [];
      unrepaired = [];
      fired = false;
    }
  in
  let obs = Cluster.obs cluster in
  Obs.subscribe obs (fun ~at ~actor:_ ev ->
      match ev with
      | Event.Decide { pid; value } -> w.decided <- (pid, value, at) :: w.decided
      | Event.Mem_restart { mid; _ } ->
          if not (List.mem mid w.restarted) then
            w.restarted <- mid :: w.restarted
      | _ -> ());
  let engine = Cluster.engine cluster in
  Engine.schedule engine deadline (fun () ->
      w.fired <- true;
      let decided_pids = List.map (fun (pid, _, _) -> pid) w.decided in
      w.missed <-
        List.filter
          (fun pid ->
            (not (Cluster.is_crashed cluster pid))
            && (not (Cluster.is_byzantine cluster pid))
            && not (List.mem pid decided_pids))
          (List.init (Cluster.n cluster) Fun.id);
      w.unrepaired <-
        (match repair with
        | None -> []
        | Some pred ->
            List.filter_map
              (fun mid ->
                (* a memory that crashed again after its rejoin owes
                   nothing: only live rejoined memories must be whole *)
                if Memory.is_crashed (Cluster.memory cluster mid) then None
                else Option.map (fun detail -> (mid, detail)) (pred mid))
              (List.sort compare w.restarted)));
  w

(* Verdict over a completed run. *)
let check ?watch ?(validity = true) ~inputs ~byz (report : Report.t) =
  let correct_decisions =
    Array.to_list report.decisions
    |> List.mapi (fun pid d -> (pid, d))
    |> List.filter (fun (pid, _) -> not (List.mem pid byz))
    |> List.filter_map (fun (pid, d) ->
           Option.map (fun { Report.value; _ } -> (pid, value)) d)
  in
  let agreement =
    match correct_decisions with
    | [] | [ _ ] -> []
    | (_, v0) :: rest ->
        if List.for_all (fun (_, v) -> v = v0) rest then []
        else [ Agreement { decisions = correct_decisions } ]
  in
  let validity =
    (* [validity = false]: the scenario decides a derived value (e.g. a
       joined multi-instance log) that is not literally any input *)
    if byz <> [] || not validity then []
    else
      List.filter_map
        (fun (pid, value) ->
          if Array.exists (( = ) value) inputs then None
          else Some (Validity { pid; value }))
        correct_decisions
  in
  let liveness =
    match watch with
    | Some w when w.fired && w.missed <> [] ->
        [ Liveness { undecided = w.missed; deadline = w.deadline } ]
    | _ -> []
  in
  let repair =
    match watch with
    | Some w when w.fired ->
        List.map (fun (mid, detail) -> Repair { mid; detail }) w.unrepaired
    | _ -> []
  in
  agreement @ validity @ liveness @ repair
